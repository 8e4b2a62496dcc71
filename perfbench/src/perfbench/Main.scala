package perfbench

import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.SparkSession

/** The workloads. Sizes are chosen so one run (set-up, gate, measured
  * passes) stays well inside the time a run may take; see README.md.
  */
object Workloads {
  val names: Seq[String] = Seq("fig11-dense", "plan")

  def byName(name: String): Workload = name match {
    case "fig11-dense" =>
      new ExecWorkload("fig11-dense", Seq(Shape.star(4)), mRange = (0.5, 0.9), foRange = (1.0, 5.0),
        driverN = 10000L, outRange = (4e4, 6e4), oracleN = 1000L)
    case "plan" =>
      new PlanWorkload(treeSizes = Seq(8, 10, 12, 14, 16, 18, 8, 10, 12, 14, 16, 18),
        stars = Seq(16), chainSizes = Seq(8, 10, 12, 8, 10, 12))
    case other =>
      throw new IllegalArgumentException(s"unknown workload '$other' (${names.mkString(", ")})")
  }
}

/** Benchmark entry point:
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  * Prints the inputs it drew, then, as its last line, one JSON object with
  * `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
  * `--trace 0`, per-layer metrics with `--trace 1`).
  */
object Main {
  val SetupReps = 3
  /** Measured passes at least, even when they outlast `--seconds`; the
    * traced run makes one (it already runs every operation twice).
    */
  val MinPasses = 2

  def session(work: String): SparkSession = {
    val cores = math.min(4, java.lang.Runtime.getRuntime.availableProcessors())
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$work/spark-local")
      .config("spark.sql.warehouse.dir", s"$work/warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def arg(args: Array[String], k: String): String = {
    val i = args.indexOf(k)
    require(i >= 0 && i + 1 < args.length, s"missing $k")
    args(i + 1)
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else java.lang.Double.toString(v)

  def main(args: Array[String]): Unit = {
    val workload = arg(args, "--workload")
    val seed     = arg(args, "--seed").toLong
    val seconds  = arg(args, "--seconds").toDouble
    val trace    = arg(args, "--trace") == "1"
    val work     = sys.props.getOrElse("perfbench.work", ".bench_build/perfbench")
    val w        = Workloads.byName(workload)

    val t0    = System.nanoTime()
    val spark = session(work)
    val sessionS = (System.nanoTime() - t0) / 1e9
    try {
      val counters = new Counters
      spark.sparkContext.addSparkListener(counters)
      val ctx = new Ctx(spark, counters, new Tracer(trace, s"$workload-$seed"), seed)
      println(s"config spark=${spark.version} master=${spark.sparkContext.master} " +
        s"nproc=${java.lang.Runtime.getRuntime.availableProcessors()} " +
        s"shuffle.partitions=${spark.conf.get("spark.sql.shuffle.partitions")} " +
        s"autoBroadcastJoinThreshold=${spark.conf.get("spark.sql.autoBroadcastJoinThreshold")} " +
        s"adaptive=${spark.conf.get("spark.sql.adaptive.enabled")} workload=$workload seed=$seed trace=${if (trace) 1 else 0}")

      val setups = (0 until SetupReps).map { i =>
        if (i > 0) w.release()
        val s0 = System.nanoTime()
        w.setup(ctx)
        (System.nanoTime() - s0) / 1e9
      }
      w.describe.foreach(println)
      val g0 = System.nanoTime()
      w.gate(ctx)
      println(f"gate_s ${(System.nanoTime() - g0) / 1e9}%.3f")
      // The JIT is still compiling Spark's planner after the gate; one more
      // untimed pass puts every measured pass further along that slope.
      if (!trace) w.pass(ctx)

      val passes = ArrayBuffer.empty[Map[String, Double]]
      val m0     = System.nanoTime()
      val minPasses = if (trace) 1 else MinPasses
      while (passes.length < minPasses || (System.nanoTime() - m0) / 1e9 < seconds) {
        System.gc()
        Thread.sleep(300)
        passes += (if (trace) w.tracedPass(ctx) else w.pass(ctx))
      }
      w.release()

      def med(k: String): Double = Stats.median(passes.map(_.getOrElse(k, 0.0)).toSeq)
      val wanted = if (trace) Metrics.perLayer else Metrics.endToEnd
      val values: Map[String, Double] =
        if (!trace) Map("setup_s" -> (sessionS + Stats.median(setups)), "pass_ms" -> w.parts.map(med).sum)
        else {
          val keys = passes.flatMap(_.keys).toSet
          keys.map(k => k -> med(k)).toMap ++ w.dataMetrics +
            ("fail_frac" -> ctx.ledger.failFrac)
        }
      val totals = passes.map(p => w.parts.map(p.getOrElse(_, 0.0)).sum).toSeq
      val spread = if (totals.length < 2) "" else {
        val (q1, _, q3) = Stats.quartiles(totals)
        f" (q1 $q1%.1f, q3 $q3%.1f)"
      }
      println(f"passes ${passes.length} pass totals ms ${totals.map(v => f"$v%.1f").mkString(" ")}$spread")
      println(f"setup session_s $sessionS%.3f inputs_s ${setups.map(v => f"$v%.3f").mkString(" ")}")
      ctx.ledger.problems.take(20).foreach(p => println(s"FAILED $p"))
      if (trace) {
        val dir = new java.io.File(work)
        dir.mkdirs()
        val f = new java.io.File(dir, s"spans-$workload-$seed.json")
        java.nio.file.Files.writeString(f.toPath, ctx.tracer.toJson)
        println(s"spans ${ctx.tracer.spans.length} written to ${f.getPath}")
      }
      val metrics = wanted.map { m =>
        s""""${m.name}": {"value": ${num(values.getOrElse(m.name, 0.0))}, "unit": "${m.unit}"}"""
      }.mkString(", ")
      val L = ctx.ledger
      println(s"""{"correct": ${L.failed == 0}, "attempted": ${L.attempted}, "failed": ${L.failed}, "metrics": {$metrics}}""")
    } finally spark.stop()
  }
}
