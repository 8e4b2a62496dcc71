package repro.exp

import org.apache.spark.sql.SparkSession
import scala.util.Random
import repro.core._
import repro.data.{TreeData, TreeQuery}
import repro.engine.Engine

/** T2 (paper Fig 11, §5.2): the synthetic benchmark. For each query shape ×
  * match-probability range we draw per-edge statistics, materialize the
  * dataset, execute all six approaches with the survival-probability order
  * (the paper's default), and report wall-clock and weighted-probe ratios
  * relative to COM — in flat-output mode and (for COM variants) in
  * factorized-output mode.
  *
  * STD variants whose *estimated* cost exceeds `probeCap` are reported as
  * TIMEOUT, mirroring the paper's timed-out red data points; queries are
  * re-drawn until the expected output fits `outCap` (the paper filtered
  * queries by result size the same way). When 100 re-draws do not fit, the
  * last draw runs anyway and its rows carry status `over-cap`.
  */
object T2Synthetic {

  /** The paper's four shapes; snow5-1 is dropped from the default bench
    * sweep purely for wall-clock budget (it behaves like snow3-2 — same
    * two-level snowflake class) and remains available via this list.
    */
  val allShapes: Seq[(String, Seq[EdgeStats] => JoinTree, Int)] = Seq(
    ("star7",   (st: Seq[EdgeStats]) => JoinTree.star(7, st), 6),
    ("path11",  (st: Seq[EdgeStats]) => JoinTree.centeredPath(11, st), 10),
    ("snow3-2", (st: Seq[EdgeStats]) => JoinTree.snowflake(3, 2, st), 9),
    ("snow5-1", (st: Seq[EdgeStats]) => JoinTree.snowflake(5, 1, st), 10),
  )
  val shapes: Seq[(String, Seq[EdgeStats] => JoinTree, Int)] = allShapes.take(3)

  final case class RunRow(shape: String, mRange: String, approach: String,
                          outMode: String, status: String, wallMs: Long,
                          weighted: Double)

  def sampleTree(mk: Seq[EdgeStats] => JoinTree, nEdges: Int, mr: (Double, Double),
                 foRange: (Double, Double), driverN: Long, outCap: Double,
                 rng: Random): JoinTree = {
    var tries = 0
    while (true) {
      val st = Seq.fill(nEdges)(EdgeStats(
        mr._1 + rng.nextDouble() * (mr._2 - mr._1),
        foRange._1 + rng.nextDouble() * (foRange._2 - foRange._1)))
      val t0 = mk(st)
      val t  = new JoinTree(t0.parent, t0.stats, t0.probeCost, driverN.toDouble)
      if (t.expectedOutput <= outCap || tries > 100) return t
      tries += 1
    }
    throw new IllegalStateException("unreachable")
  }

  def run(spark: SparkSession, driverN: Long = 10000,
          mRanges: Seq[(Double, Double)] = Seq((0.05, 0.2), (0.5, 0.9)),
          foRange: (Double, Double) = (1.0, 5.0),
          probeCap: Double = 3e7, outCap: Double = 2e6,
          seed: Long = 5L, counting: Boolean = true): Seq[RunRow] = {
    val w    = Weights()
    val rows = scala.collection.mutable.ListBuffer.empty[RunRow]
    for (((shape, mk, nEdges), si) <- shapes.zipWithIndex; (mr, ri) <- mRanges.zipWithIndex) {
      val rng  = new Random(seed + si * 31 + ri)
      val tree = sampleTree(mk, nEdges, mr, foRange, driverN, outCap, rng)
      val q    = TreeData.generate(spark, tree, seed + si * 97 + ri)
      q.rels.foreach(r => { r.persist(); r.count() })
      val order   = Optimizer.greedy(tree, Optimizer.Heuristic.SurvivalProb)
      val mrLabel = s"[${mr._1},${mr._2}]"
      val status  = if (tree.expectedOutput > outCap) "over-cap" else "ok"
      try {
        for (a <- Approach.all) {
          val est = CostModel.cost(tree, order, a, flatOutput = true)
          if (est.total(w) > probeCap) {
            rows += RunRow(shape, mrLabel, a.name, "flat", "TIMEOUT", -1L, -1.0)
          } else {
            val res = Engine.run(q, order, a, counting = counting, flatOutput = true)
            rows += RunRow(shape, mrLabel, a.name, "flat", status,
              res.log.wallMs, res.log.weighted(w))
          }
        }
        for (a <- Seq(Approach.Com)) {
          val res = Engine.run(q, order, a, counting = counting, flatOutput = false)
          rows += RunRow(shape, mrLabel, a.name, "factorized", status,
            res.log.wallMs, res.log.weighted(w))
        }
      } finally q.rels.foreach(_.unpersist(blocking = false))
    }
    rows.toList
  }

  def table(rows: Seq[RunRow]): Seq[String] = {
    // Ratio vs the COM flat run of the same (shape, mRange).
    def ran(r: RunRow) = r.status != "TIMEOUT"
    val base = rows.collect {
      case r if r.approach == "COM" && r.outMode == "flat" && ran(r) =>
        (r.shape, r.mRange) -> r
    }.toMap
    val out = rows.map { r =>
      val b = base.get((r.shape, r.mRange))
      val (rw, rp) = b match {
        case Some(c) if ran(r) && c.wallMs > 0 && c.weighted > 0 =>
          (r.wallMs.toDouble / c.wallMs, r.weighted / c.weighted)
        case _ => (-1.0, -1.0)
      }
      Seq(r.shape, r.mRange, r.approach, r.outMode, r.status,
        if (ran(r)) r.wallMs.toString else "-",
        if (ran(r)) Tables.fmt(r.weighted) else "-",
        if (rw > 0) Tables.fmt(rw) else "-",
        if (rp > 0) Tables.fmt(rp) else "-")
    }
    Tables.render(
      "T2 / Fig 11 - synthetic benchmark, six approaches (ratios vs COM flat)",
      Seq("shape", "m-range", "approach", "output", "status", "wall ms",
          "weighted probes", "wall/COM", "probes/COM"),
      out)
  }
}
