package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.JoinTree

/** Generator for join-tree datasets with *controlled* per-edge match
  * probability and fanout — the substrate for the paper's synthetic
  * benchmark (§5.2).
  *
  * Generative model (documented in DESIGN.md):
  *  - the driver holds keys 1..N in column `k0`;
  *  - for an edge parent→child with stats (m, fo), every parent key flips a
  *    seeded coin (xxhash64-based, independent across edges) and, with
  *    probability m, contributes ⌊fo⌋ or ⌈fo⌉ child rows (the fractional
  *    part is another seeded coin, so E[rows | matched] = fo);
  *  - a child row's own key is `parentKey·16 + copyIndex`, which keeps key
  *    columns row-unique and fully deterministic without shuffles — the
  *    property the paper's cost formulas assume (a child row matches
  *    exactly one parent row). Requires fo < 16 and
  *    4·depth + ⌈log₂(N+1)⌉ ≤ 63, so the deepest key fits in a Long.
  *
  * Everything is expressed in the DataFrame API; no RDD-level code.
  */
object TreeData {

  /** Maximum supported fanout (key-packing uses 4 bits per level). */
  val MaxFanout = 15.0

  /** Seeded pseudo-uniform in [0, 1) derived from a column. */
  private def u01(c: Column, seed: Long): Column =
    pmod(xxhash64(c, lit(seed)), lit(1000000L)).cast("double") / 1e6

  /** Child relation of `parentKeys` (a single-column DataFrame named `pk`)
    * for node `node` with the given stats.
    */
  private[data] def childOf(parentKeys: DataFrame, node: Int, m: Double, fo: Double,
                            seed: Long): DataFrame = {
    require(fo >= 1.0 && fo <= MaxFanout, s"fanout $fo outside [1, $MaxFanout]")
    val base  = math.floor(fo).toLong
    val frac  = fo - base
    val sMatch = seed * 7919 + node * 13 + 1
    val sFrac  = seed * 7919 + node * 13 + 2
    val sPay   = seed * 7919 + node * 13 + 3
    val cnt =
      lit(base) + when(u01(col("pk"), sFrac) < frac, 1L).otherwise(0L)
    parentKeys
      .where(u01(col("pk"), sMatch) < m)
      .select(col("pk").as(s"fk$node"), explode(sequence(lit(1L), cnt)).as("copy"))
      .select(
        (col(s"fk$node") * 16 + col("copy")).as(s"k$node"),
        col(s"fk$node"),
        pmod(xxhash64(col(s"fk$node") * 16 + col("copy"), lit(sPay)), lit(1000L))
          .cast("int").as(s"p$node"),
      )
  }

  /** Materialize all relations of a join tree at driver cardinality
    * `tree.driverSize` (rounded). Returns a ready-to-execute [[TreeQuery]].
    */
  def generate(spark: SparkSession, tree: JoinTree, seed: Long = 42L): TreeQuery = {
    val n = tree.n
    val driverN = math.max(1L, math.round(tree.driverSize))
    val depth   = (0 until n).map(tree.depth).max
    val keyBits = 4 * depth + (64 - java.lang.Long.numberOfLeadingZeros(driverN))
    require(keyBits <= 63,
      s"key packing overflows a Long: depth $depth with driver size $driverN needs " +
        s"4·$depth + ⌈log₂($driverN+1)⌉ = $keyBits bits (at most 63)")
    val rels = new Array[DataFrame](n)
    rels(0) = spark.range(1, driverN + 1).select(
      col("id").as("k0"),
      pmod(xxhash64(col("id"), lit(seed)), lit(1000L)).cast("int").as("p0"),
    )
    for (i <- 1 until n) {
      val p  = tree.parent(i)
      val st = tree.stats(i)
      val parentKeys = rels(p).select(col(s"k$p").as("pk"))
      rels(i) = childOf(parentKeys, i, st.m, st.fo, seed)
    }
    TreeQuery(
      tree,
      rels.toIndexedSeq,
      parentCol = (0 until n).map(i => if (i == 0) "" else s"k${tree.parent(i)}"),
      childCol  = (0 until n).map(i => if (i == 0) "" else s"fk$i"),
      keyCol    = (0 until n).map(i => s"k$i"),
    )
  }

  /** Empirical edge statistics of a generated query — used by tests to
    * verify the generator hits the requested (m, fo) and by experiments
    * that want *actual* rather than requested statistics.
    */
  def measuredStats(q: TreeQuery, i: Int): (Double, Double) = {
    require(i >= 1 && i < q.tree.n)
    val p        = q.tree.parent(i)
    val parentN  = q.rels(p).count().toDouble
    val matched  = q.rels(i).select(col(q.childCol(i))).distinct().count().toDouble
    val childN   = q.rels(i).count().toDouble
    val m  = if (parentN == 0) 0.0 else matched / parentN
    val fo = if (matched == 0) 0.0 else childN / matched
    (m, fo)
  }
}
