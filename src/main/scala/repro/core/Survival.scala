package repro.core

/** Survival probabilities and the per-step probe estimator (§3.3, §3.5).
  *
  * All estimators are *stateless*: given the set of already-evaluated join
  * operators (always a connected subtree containing the driver, node 0) and
  * the next relation `l`, they return the expected number of probes into
  * `l`'s hash table. This is exactly Eq. (1) of the paper, built on the
  * recursive branch-survival probability `m_T`, with an optional
  * bitvector-pruning variant (ε = false-positive probability).
  *
  * Each idea is written once, on a `Double` ε. A plan without bitvectors
  * is the ε = ∞ case: every pending bitvector passes everything (pass rate
  * exactly 1). The public `Option[Double]` forms map `None` to it.
  *
  * Evaluated sets are bitmasks (bit i = relation i evaluated); `JoinTree`
  * caps trees at 31 relations so an Int mask suffices and keeps the
  * exhaustive DP allocation-free.
  */
object Survival {

  @inline def bit(i: Int): Int = 1 << i

  /** The ε of a plan without bitvectors. */
  private val NoBitvectors: Double = Double.PositiveInfinity

  /** Pass rate of BV(c), the bitvector on relation c's join key (§3.5): a
    * probe passes when it matches (m_c) or is a false positive (ε).
    */
  @inline private def passRate(tree: JoinTree, c: Int, eps: Double): Double =
    math.min(1.0, tree.stats(c).m + eps)

  /** `acc` times one factor per child `c ≠ skip` of `r`, in node order:
    * m_T(c) if c is evaluated, else the pass rate of BV(c) — a pending child
    * of an evaluated node has its bitvector applied but its join not run.
    */
  private[core] def childFactors(acc: Double, tree: JoinTree, mask: Int, r: Int,
                                 eps: Double, skip: Int): Double = {
    var x  = acc
    var cs = tree.children(r)
    while (cs.nonEmpty) {
      val c = cs.head
      if (c != skip)
        x *= (if ((mask & bit(c)) != 0) survival(tree, mask, c, eps) else passRate(tree, c, eps))
      cs = cs.tail
    }
    x
  }

  /** m_T(r) = m_r × (1 − (1 − Π_c factor(c))^{fo_r}) over the children of r. */
  private def survival(tree: JoinTree, mask: Int, r: Int, eps: Double): Double = {
    val st = tree.stats(r)
    val x  = childFactors(1.0, tree, mask, r, eps, -1)
    if (x >= 1.0) st.m
    else st.m * (1.0 - math.pow(1.0 - x, st.fo))
  }

  /** `m_T` for the branch rooted at `r` restricted to evaluated nodes
    * (§3.3):
    *
    *   m_T(r) = m_r × (1 − (1 − Π_{c ∈ evalChildren(r)} m_T(c))^{fo_r})
    *
    * With bitvector pruning (`eps = Some(ε)`), every *pending* child — a
    * child of an evaluated node whose own join has not run yet, but whose
    * bitvector has already been applied — contributes a factor (m_c + ε)
    * capped at 1 (§3.5).
    */
  def branchSurvival(tree: JoinTree, evalMask: Int, r: Int,
                     eps: Option[Double] = None): Double =
    survival(tree, evalMask, r, eps.getOrElse(NoBitvectors))

  /** Survival probability of a *driver* tuple through the whole evaluated
    * tree: the product of the branch survivals of the driver's evaluated
    * children (the driver itself has m = 1).
    */
  def treeSurvival(tree: JoinTree, evalMask: Int, eps: Option[Double] = None): Double =
    childFactors(1.0, tree, evalMask, 0, eps.getOrElse(NoBitvectors), -1)

  /** Eq. (1): expected number of probes into relation `l`'s hash table given
    * the evaluated set `evalMask` (which must contain `parent(l)` and not
    * `l`). Expansion happens along the path root → parent(l): every path
    * node contributes m·fo; every evaluated branch hanging off the path
    * contributes only its survival probability m_T.
    *
    * With `eps = Some(ε)` this becomes the COM+BVP estimate (§3.5): pending
    * bitvectors hanging off path nodes — including BV(l) itself — each
    * contribute (m + ε), and branch survivals account for pending
    * bitvectors inside the branch.
    */
  def probesCom(tree: JoinTree, evalMask: Int, l: Int, eps: Option[Double] = None): Double = {
    require((evalMask & bit(l)) == 0, s"relation $l already evaluated")
    require(tree.parent(l) == 0 || (evalMask & bit(tree.parent(l))) != 0,
      s"parent of $l not evaluated — order violates precedence")
    reaching(tree, evalMask, tree.parent(l), -1, eps.getOrElse(NoBitvectors))
  }

  /** Probes reaching node `a`'s level on the path down to its child
    * `below`: N, times m·fo of every path node under the root, times the
    * factor of every child off the path (multiplied root first). With
    * a = parent(l) and no `below`, this is Eq. (1) for l.
    */
  private def reaching(tree: JoinTree, mask: Int, a: Int, below: Int, eps: Double): Double = {
    val p =
      if (a == 0) tree.driverSize
      else { val st = tree.stats(a); reaching(tree, mask, tree.parent(a), a, eps) * (st.m * st.fo) }
    childFactors(p, tree, mask, a, eps, below)
  }

  /** Entries at relation `a`'s level right after its hash join, given the
    * probes `p` into it: the probes already passed BV(a), so the conditional
    * match probability is m/(m+ε) (just m without bitvectors).
    */
  private[core] def joined(tree: JoinTree, a: Int, p: Double, eps: Double): Double = {
    val st = tree.stats(a)
    p * (st.m / passRate(tree, a, eps)) * st.fo
  }

  /** Expected number of *entries at relation `a`'s level* in the factorized
    * representation immediately after `a`'s hash join completed, i.e. the
    * probe count into `a` times its (conditional) selectivity.
    *
    * For the driver (a = 0) this is just N filtered by the evaluated
    * branches.
    */
  def entriesAfterJoin(tree: JoinTree, evalMaskAfter: Int, a: Int,
                       eps: Option[Double] = None): Double =
    if (a == 0) tree.driverSize * treeSurvival(tree, evalMaskAfter, eps)
    else joined(tree, a, probesCom(tree, evalMaskAfter & ~bit(a), a, eps), eps.getOrElse(NoBitvectors))

  /** The bitvector sweep (§3.5): `entries` tuples at node `a`'s level are
    * probed, in node order, against BV(c) of every child c of `a`, and each
    * bitvector lets its pass rate through. Returns the bitvector probes; the
    * surviving entries are `childFactors(entries, ...)` while the children
    * are pending.
    */
  private[core] def bvSweep(tree: JoinTree, a: Int, entries: Double, eps: Double): Double = {
    var x       = entries
    var charged = 0.0
    var cs      = tree.children(a)
    while (cs.nonEmpty) { charged += x; x *= passRate(tree, cs.head, eps); cs = cs.tail }
    charged
  }

  /** One step of a COM or BVP+COM plan (§3.3, §3.5): relation `l` joins
    * after the evaluated set `mask`. `ht` is c_l × Eq. (1), evaluated once;
    * with bitvectors (`eps` defined), `bv` is the sweep of the entries l's
    * join leaves through the bitvectors of l's children.
    *
    * A step depends only on (mask, l), which is Thm 3.3: the same step is
    * the term `CostModel` sums along an order and the edge cost Algorithm 1
    * minimizes. Results are fields so Algorithm 1's inner loop allocates
    * nothing; use one instance per plan or per search.
    */
  final class Step(tree: JoinTree, eps: Option[Double]) {
    private val bitvectors = eps.isDefined
    private val e          = eps.getOrElse(NoBitvectors)

    /** Bitvector probes of the driver's children, applied to the N driver
      * tuples before the first join.
      */
    val driverBv: Double = if (bitvectors) bvSweep(tree, 0, tree.driverSize, e) else 0.0

    var ht = 0.0
    var bv = 0.0

    def apply(mask: Int, l: Int): Unit = {
      val p = reaching(tree, mask, tree.parent(l), -1, e)
      ht = tree.probeCost(l) * p
      bv = if (bitvectors) bvSweep(tree, l, joined(tree, l, p, e), e) else 0.0
    }

    /** The weighted step cost w.probe × ht + w.bv × bv. */
    def cost(mask: Int, l: Int, w: Weights): Double = {
      apply(mask, l)
      w.probe * ht + w.bv * bv
    }
  }
}
