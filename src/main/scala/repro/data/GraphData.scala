package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{EdgeStats, JoinTree}

/** Synthetic graph datasets standing in for the CE benchmark (§5.3).
  *
  * The CE benchmark's relevance to this paper is that its graph workloads
  * (epinions, imdb, watdiv, dblp, yago) contain many-to-many self-joins
  * whose intermediate results explode. We reproduce that property with edge
  * tables whose destination vertices follow a zipf distribution (hubs), so
  * multi-hop joins expand super-linearly, and run path / star / tree
  * pattern queries over edge aliases. Substitution documented in DESIGN.md.
  */
object GraphData {

  private val log = org.slf4j.LoggerFactory.getLogger(getClass)

  /** Fanout cap of the statistics `aliasQuery` hands the optimizer. */
  private val MaxFanout = 15.0

  /** A named dataset configuration: vertex count, edge count, zipf skew. */
  final case class Config(name: String, vertices: Long, edges: Long, alpha: Double)

  /** Five stand-ins, skew and size loosely graded like the CE datasets. */
  val datasets: Seq[Config] = Seq(
    Config("epinions", 4000,  40000, 0.9),
    Config("imdb",     8000,  48000, 0.6),
    Config("watdiv",   6000,  60000, 1.1),
    Config("dblp",     9000,  36000, 0.5),
    Config("yago",     5000,  50000, 1.2),
  )

  /** Edge table E(src, dst): src uniform, dst zipf-skewed (hub vertices).
    * Deterministic in the seed.
    */
  def edges(spark: SparkSession, cfg: Config, seed: Long = 7L): DataFrame = {
    val norm = (1L to math.min(cfg.vertices, 5000L))
      .map(k => 1.0 / math.pow(k, cfg.alpha)).sum
    val u1 = pmod(xxhash64(col("id"), lit(seed)), lit(1000000L)).cast("double") / 1e6
    val u2 = pmod(xxhash64(col("id"), lit(seed + 1)), lit(1000000L)).cast("double") / 1e6
    spark.range(cfg.edges).select(
      col("id").as("eid"),
      (u1 * cfg.vertices + 1).cast("long").as("src"),
      least(lit(cfg.vertices),
        greatest(lit(1L),
          pow(lit(1.0) / (u2 * norm + 1e-9), lit(1.0 / cfg.alpha)).cast("long"),
        )).as("dst"),
    )
  }

  /** Build a [[TreeQuery]] whose nodes are aliases of the edge table,
    * joined dst→src along the given tree shape (`parents`, node 0 = driver
    * alias). The driver is the edge table itself; child aliases join their
    * parent's destination vertex.
    *
    * The `JoinTree` statistics attached here are *measured* naive
    * estimates (distinct-value formulas of §3.2) so the optimizer has
    * something to work with, exactly like a real system would.
    */
  def aliasQuery(spark: SparkSession, e: DataFrame, parents: Seq[Int]): TreeQuery = {
    val n = parents.length
    require(parents.head == -1)
    val rels = (0 until n).map { i =>
      e.select(col("eid").as(s"k$i"), col("src").as(s"fk$i"), col("dst").as(s"out$i"))
    }
    val eCount  = e.count().toDouble
    val vSrc    = e.select("src").distinct().count().toDouble
    val vDst    = e.select("dst").distinct().count().toDouble
    // Naive §3.2 estimates for a dst→src self-join, identical on all edges.
    val m  = math.min(1.0, vSrc / math.max(vSrc, vDst))
    val fo = eCount / vSrc
    if (fo > MaxFanout)
      log.warn(f"aliasQuery: estimated fanout $fo%.3f clamped to $MaxFanout%.1f in the join-tree statistics")
    val tree = JoinTree(
      parents.drop(1).map(p => (p, m, math.min(fo, MaxFanout))),
      driverSize = eCount,
    )
    TreeQuery(
      tree,
      rels,
      parentCol = (0 until n).map(i => if (i == 0) "" else s"out${parents(i)}"),
      childCol  = (0 until n).map(i => if (i == 0) "" else s"fk$i"),
      keyCol    = (0 until n).map(i => s"k$i"),
    )
  }

  /** The query shapes used for the CE-substitute experiment. */
  val shapes: Seq[(String, Seq[Int])] = Seq(
    "path3" -> Seq(-1, 0, 1),
    "path4" -> Seq(-1, 0, 1, 2),
    "star3" -> Seq(-1, 0, 0, 0),
    "tree4" -> Seq(-1, 0, 0, 1),
  )
}
