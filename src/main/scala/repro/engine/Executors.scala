package repro.engine

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{CostModel, SemiJoinModel}
import repro.data.TreeQuery

/** Result of one plan execution: the flat result (when requested) and the
  * measured probe log.
  */
final case class ExecResult(flat: Option[DataFrame], log: ProbeLog)

/** Shared helpers for the executors. */
private[engine] object ExecUtil {

  /** Values of `c` in `df`, as the single key column "v". Duplicates are
    * kept: a left-semi build side tolerates them.
    */
  def keys(df: DataFrame, c: String): DataFrame = df.select(col(c).as("v"))

  /** Join-key set of relation l — the exact-filter analog of the paper's
    * bitvector (ε = 0); see DESIGN.md §3.
    */
  def filterSet(q: TreeQuery, l: Int): DataFrame = keys(q.rels(l), q.childCol(l))

  /** Semi-join `df` against `keys` (column "v") on `df.onCol`. The key side
    * is broadcast — the paper's hash table / bitvector — while the global
    * `autoBroadcastJoinThreshold = -1` keeps every other join shuffled.
    */
  def semi(df: DataFrame, onCol: String, keys: DataFrame): DataFrame =
    df.join(broadcast(keys), col(onCol) === keys.col("v"), "left_semi")

  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1000000L)
  }
}

/** STD execution (§4.1): the flat left-deep pipeline. Optionally with
  * bitvector-based early pruning (§4.4): the key set of every relation is
  * applied to the stream the moment its join attribute becomes available —
  * driver-attribute bitvectors before the first join, the rest immediately
  * after the parent's join.
  *
  * Probes into relation l's hash table = rows of the intermediate entering
  * the join (measured with count() when `counting`); bitvector probes =
  * rows entering each key-set filter.
  */
object StdExecutor {

  def run(q: TreeQuery, order: Seq[Int], counting: Boolean = true,
          bvp: Boolean = false): ExecResult = {
    CostModel.validateOrder(q.tree, order)
    var ht   = Map.empty[Int, Long]
    var bv   = 0L
    val (flatAndOut, ms) = ExecUtil.timed {
      var cur = q.rels(0)
      def applyBvs(of: Int): Unit =
        for (c <- q.tree.children(of)) {
          if (counting) bv += cur.count()
          cur = ExecUtil.semi(cur, q.parentCol(c), ExecUtil.filterSet(q, c))
        }
      if (bvp) applyBvs(0)
      for (l <- order) {
        if (counting) ht += l -> cur.count()
        cur = cur.join(q.rels(l), col(q.parentCol(l)) === col(q.childCol(l)))
        if (bvp) applyBvs(l)
      }
      val flat = cur.select(q.outputCols.map(col): _*)
      (flat, flat.count())
    }
    ExecResult(Some(flatAndOut._1),
      ProbeLog(ht, bv, 0L, flatAndOut._2, ms))
  }
}

/** COM execution (§4.2–4.3): the factorized representation, realized as one
  * DataFrame `A(i)` of *matched entries* per join-tree node, with survival
  * ("selection vector") semantics kept incrementally, following the §3.3
  * recursion for m_T.
  *
  * `down(i)` holds the entries of `A(i)` that survive i's evaluated subtree
  * (bottom-up: `down(i) = A(i) ⋉ keys(down(c))` over i's evaluated
  * children c). When relation l joins, only the path l → root changes, so
  * only those sets are updated, one semi-join per level. Alive entries at p
  * are the top-down semi-join over the `down` sets of root → p; that each
  * path node is also filtered by its on-path child removes only entries with
  * no match below, so it changes no alive entry at p.
  *
  * Probes into relation l = alive entries at l's parent level — the
  * executable mirror of Eq. (1). With `bvp`, every `A(i)` is additionally
  * filtered at creation time by the key sets of i's future children —
  * bitvectors applied as soon as the attribute exists.
  *
  * Every `A(l)` (the first `down(l)`) and `down` update is checkpointed
  * lazily: the lineage is cut, so plans stay O(depth) however many steps
  * ran, and no job of its own runs. Counting off, step l starts one
  * broadcast job per semi-join it builds — depth(parent(l)) for the alive
  * walk, one for the probe, depth(l) for the update: two on a star. The
  * factorized count is one more action.
  */
object ComExecutor {

  def run(q: TreeQuery, order: Seq[Int], counting: Boolean = true,
          bvp: Boolean = false, flatOutput: Boolean = true): ExecResult = {
    CostModel.validateOrder(q.tree, order)
    val t    = q.tree
    val down = new Array[DataFrame](t.n)
    var ht   = Map.empty[Int, Long]
    var bv   = 0L

    /** Apply pending bitvectors of `i`'s children to `df` (entries at i's
      * level), charging bitvector probes.
      */
    def applyChildBvs(i: Int, df0: DataFrame): DataFrame = {
      var df = df0
      for (c <- t.children(i)) {
        if (counting) bv += df.count()
        df = ExecUtil.semi(df, q.parentCol(c), ExecUtil.filterSet(q, c))
      }
      df
    }

    /** Entries of `down(c)` whose parent entry is in `parentAlive`. */
    def below(parentAlive: DataFrame, c: Int): DataFrame =
      ExecUtil.semi(down(c), q.childCol(c), ExecUtil.keys(parentAlive, q.parentCol(c)))

    def aliveEntries(p: Int): DataFrame =
      t.pathFromRoot(p).tail.foldLeft(down(0))(below)

    val (out, ms) = ExecUtil.timed {
      down(0) = if (bvp) applyChildBvs(0, q.rels(0)).localCheckpoint(eager = false) else q.rels(0)

      for (l <- order) {
        val alive = aliveEntries(t.parent(l))
        if (counting) ht += l -> alive.count()
        var al = ExecUtil.semi(q.rels(l), q.childCol(l), ExecUtil.keys(alive, q.parentCol(l)))
        if (bvp) al = applyChildBvs(l, al)
        down(l) = al.localCheckpoint(eager = false)
        var c = l
        while (c != 0) {
          val a = t.parent(c)
          down(a) = ExecUtil.semi(down(a), q.parentCol(c), ExecUtil.keys(down(c), q.childCol(c)))
            .localCheckpoint(eager = false)
          c = a
        }
      }

      if (flatOutput) {
        // Expansion: fold the factorized vectors back into flat tuples.
        var cur = down(0)
        for (l <- 1 until t.n)
          cur = cur.join(down(l), col(q.parentCol(l)) === col(q.childCol(l)))
        val flat = cur.select(q.outputCols.map(col): _*)
        (Some(flat), flat.count())
      } else {
        // Factorized output: every node's alive entries, counted in one action.
        val alive = new Array[DataFrame](t.n)
        alive(0) = down(0)
        for (i <- 1 until t.n) alive(i) = below(alive(t.parent(i)), i)
        (None, alive.map(_.select(lit(1).as("e"))).reduce(_ union _).count())
      }
    }
    ExecResult(out._1, ProbeLog(ht, bv, 0L, out._2, ms))
  }
}

/** Semi-join full reduction (§4.5, Yannakakis §3.6): phase 1 reduces every
  * internal node bottom-up against its (already reduced) children in
  * ascending adjusted-match-probability order; the driver ends fully
  * reduced, leaves untouched. Phase 2 re-runs STD or COM over the reduced
  * relations. Semi-join probes = rows entering each reduction filter.
  */
object SjExecutor {

  def run(q: TreeQuery, phase2Order: Seq[Int], useCom: Boolean,
          counting: Boolean = true, flatOutput: Boolean = true): ExecResult = {
    CostModel.validateOrder(q.tree, phase2Order)
    val t       = q.tree
    val red     = SemiJoinModel.reductionRatios(t)
    var semiCnt = 0L
    val reduced = new Array[DataFrame](t.n)

    val (_, msP1) = ExecUtil.timed {
      for (i <- (t.n - 1) to 0 by -1) {
        var r = q.rels(i)
        val kids = t.children(i).sortBy { c =>
          val st = t.stats(c); SemiJoinModel.adjustedM(st.m, st.fo, red(c))
        }
        for (c <- kids) {
          if (counting) semiCnt += r.count()
          r = ExecUtil.semi(r, q.parentCol(c), ExecUtil.keys(reduced(c), q.childCol(c)))
        }
        // Truncate lineage: phase 2 re-derives plans over these reductions.
        if (kids.nonEmpty) r = r.localCheckpoint(eager = false)
        reduced(i) = r
      }
    }

    val q2 = q.copy(rels = reduced.toIndexedSeq)
    val res =
      if (useCom) ComExecutor.run(q2, phase2Order, counting, bvp = false, flatOutput)
      else StdExecutor.run(q2, phase2Order, counting)
    ExecResult(res.flat,
      res.log.copy(semiProbes = semiCnt, wallMs = res.log.wallMs + msP1))
  }
}

/** Dispatch facade over the six approaches (§4.1). */
object Engine {
  import repro.core.Approach
  import repro.core.Approach._

  def run(q: TreeQuery, order: Seq[Int], approach: Approach,
          counting: Boolean = true, flatOutput: Boolean = true): ExecResult =
    approach match {
      case Std    => StdExecutor.run(q, order, counting)
      case BvpStd => StdExecutor.run(q, order, counting, bvp = true)
      case Com    => ComExecutor.run(q, order, counting, flatOutput = flatOutput)
      case BvpCom => ComExecutor.run(q, order, counting, bvp = true, flatOutput = flatOutput)
      case SjStd  => SjExecutor.run(q, order, useCom = false, counting, flatOutput)
      case SjCom  => SjExecutor.run(q, order, useCom = true, counting, flatOutput)
    }
}
