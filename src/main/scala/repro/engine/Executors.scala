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
    * is broadcast — the paper's hash table / bitvector. Every join the
    * executors build names its build side this way; the global
    * `autoBroadcastJoinThreshold = -1` keeps Spark from choosing one itself.
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
  * Every join is a broadcast hash join whose build side is relation l
  * itself, never the growing intermediate: the pipeline is one query whose
  * broadcasts run concurrently, with no shuffle or sort.
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
        cur = cur.join(broadcast(q.rels(l)), col(q.parentCol(l)) === col(q.childCol(l)))
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
  * DataFrame of entries per join-tree node, with survival ("selection
  * vector") semantics kept incrementally, following the §3.3 recursion for
  * m_T.
  *
  * `down(i)` holds the rows of relation i that survive i's evaluated
  * subtree: it starts as `R_i` (under `bvp`, `R_i` filtered by the key sets
  * of i's children — bitvectors applied as soon as the attribute exists)
  * and becomes `down(i) ⋉ keys(down(c))` once each child c is evaluated.
  * When relation l joins, only the path l → root changes, so only those
  * sets are updated, one semi-join per level; the first key side is `R_l`,
  * an input.
  *
  * Alive entries at p are the top-down semi-join over the `down` sets of
  * root → p. `down` carries no top-down filter: the root → p walk
  * re-applies every ancestor's, and alive sets only shrink from one step to
  * the next, so an entry alive now had an alive parent when it arrived and
  * the alive sets equal those of `A(i) = R_i ⋉ keys(alive(parent(i)))`.
  *
  * Probes into relation l = alive entries at l's parent level — the
  * executable mirror of Eq. (1); bitvector probes are counted on the
  * arriving entries `R_l ⋉ keys(alive(parent(l)))`. With counting off, a
  * step builds no alive walk at all.
  *
  * A DataFrame is checkpointed (`localCheckpoint(eager = false)`) only when
  * a second action or a broadcast will read it: counting off, every
  * non-root `down` update (the key side of the next level's update) and an
  * internal node's alive set in the factorized count (read by each child);
  * counting on, also every counted alive set and root update, which the
  * next step's `count()` reads again. A star's `down(0)` is never
  * checkpointed, so an uncounted star COM run is a single query. The flat
  * expansion joins `down(0)` with every broadcast `down(l)`, a pipeline like
  * STD's whose build sides are bounded by the input.
  */
object ComExecutor {

  def run(q: TreeQuery, order: Seq[Int], counting: Boolean = true,
          bvp: Boolean = false, flatOutput: Boolean = true): ExecResult = {
    CostModel.validateOrder(q.tree, order)
    val t    = q.tree
    val down = new Array[DataFrame](t.n)
    var ht   = Map.empty[Int, Long]
    var bv   = 0L

    /** `df` (entries at i's level) filtered by the key sets of i's children;
      * with `charge`, every entry entering a filter is a bitvector probe.
      */
    def childBvs(i: Int, df0: DataFrame, charge: Boolean): DataFrame = {
      var df = df0
      for (c <- t.children(i)) {
        if (charge) bv += df.count()
        df = ExecUtil.semi(df, q.parentCol(c), ExecUtil.filterSet(q, c))
      }
      df
    }

    /** Entries of `down(c)` whose parent entry is in `parentAlive`. */
    def below(parentAlive: DataFrame, c: Int): DataFrame =
      ExecUtil.semi(down(c), q.childCol(c), ExecUtil.keys(parentAlive, q.parentCol(c)))

    def cut(df: DataFrame): DataFrame = df.localCheckpoint(eager = false)

    val (out, ms) = ExecUtil.timed {
      down(0) = if (bvp) childBvs(0, q.rels(0), counting) else q.rels(0)

      for (l <- order) {
        if (counting) {
          val alive = cut(t.pathFromRoot(t.parent(l)).tail.foldLeft(down(0))(below))
          ht += l -> alive.count()
          if (bvp) childBvs(l, ExecUtil.semi(q.rels(l), q.childCol(l),
            ExecUtil.keys(alive, q.parentCol(l))), charge = true)
        }
        down(l) = if (bvp) childBvs(l, q.rels(l), charge = false) else q.rels(l)
        var c = l
        while (c != 0) {
          val a = t.parent(c)
          down(a) = ExecUtil.semi(down(a), q.parentCol(c), ExecUtil.keys(down(c), q.childCol(c)))
          // down(a) is the key side of the next level's update (a ≠ root),
          // or is read by the next step's count (counting on).
          if (a != 0 || counting) down(a) = cut(down(a))
          c = a
        }
      }

      if (flatOutput) {
        // Expansion: fold the factorized vectors back into flat tuples.
        var cur = down(0)
        for (l <- 1 until t.n)
          cur = cur.join(broadcast(down(l)), col(q.parentCol(l)) === col(q.childCol(l)))
        val flat = cur.select(q.outputCols.map(col): _*)
        (Some(flat), flat.count())
      } else {
        // Factorized output: every node's alive entries, counted in one action.
        val alive = new Array[DataFrame](t.n)
        for (i <- 0 until t.n) {
          val a = if (i == 0) down(0) else below(alive(t.parent(i)), i)
          alive(i) = if (t.children(i).nonEmpty) cut(a) else a
        }
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
