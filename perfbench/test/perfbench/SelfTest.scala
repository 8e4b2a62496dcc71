package perfbench

import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.SparkSession

/** Self-tests of the benchmark's own machinery: the order statistics, span
  * self time and the correctness gate. Run with
  * `python3 perfbench/run.py --self-test`; exits non-zero on any failure.
  */
object SelfTest {
  private val failures = ArrayBuffer.empty[String]
  private var checks   = 0

  private def check(ok: Boolean, what: String): Unit = {
    checks += 1
    if (!ok) failures += what
  }

  private def near(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  def stats(): Unit = {
    check(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0, "median of odd count")
    check(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5, "median of even count")
    // Reference values: Python's statistics.quantiles(xs, n=4).
    val (a1, a2, a3) = Stats.quartiles((1 to 10).map(_.toDouble))
    check(near(a1, 2.75) && near(a2, 5.5) && near(a3, 8.25), s"quartiles 1..10: ($a1, $a2, $a3)")
    val (b1, b2, b3) = Stats.quartiles(Seq(2.0, 1.0))
    check(near(b1, 0.75) && near(b2, 1.5) && near(b3, 2.25), s"quartiles of two: ($b1, $b2, $b3)")
    val (c1, c2, c3) = Stats.quartiles(Seq(10.0, 7.0, 12.0, 9.0, 30.0))
    check(near(c1, 8.0) && near(c2, 10.0) && near(c3, 21.0), s"quartiles of five: ($c1, $c2, $c3)")
    check(Stats.percentile(Seq(1.0, 2.0, 3.0, 4.0, 5.0), 95) == 4.8, "p95 interpolates")
    check(Stats.qError(10, 40) == 4.0 && Stats.qError(40, 10) == 4.0, "q-error is symmetric")
    check(Stats.qError(0, 0) == 1.0, "q-error of two empty counts is 1")
  }

  def spans(): Unit = {
    check(Stats.unionLength(Seq((10L, 30L), (20L, 50L), (60L, 70L)), 0, 100) == 50,
      "overlapping intervals are counted once")
    check(Stats.unionLength(Seq((-5L, 5L), (95L, 120L)), 0, 100) == 10,
      "intervals are clipped to the window")
    check(Stats.unionLength(Nil, 0, 100) == 0, "no intervals cover nothing")

    val all = Seq(
      Span(0, "Engine.run", 0, 100, -1, "r"),
      Span(1, "spark.job.1", 10, 30, 0, "r"),
      Span(2, "spark.job.2", 20, 50, 0, "r"),
      Span(3, "inner", 60, 70, 0, "r"),
      Span(4, "spark.job.3", 62, 65, 3, "r"), // grandchild: inside its parent's time
    )
    check(Trace.selfNs(all, all(0)) == 50, s"self time ${Trace.selfNs(all, all(0))} != 50")
    check(Trace.coveredNs(all, all(0), "spark.job.") == 40, "job-covered time of the run span")
    check(Trace.selfNs(all, all(3)) == 7, "self time of a nested span")

    val t = new Tracer(enabled = true, run = "t")
    t.span("outer") { t.span("a")(()); t.span("b")(()) }
    val byName = t.spans.map(s => s.name -> s).toMap
    check(byName("a").parent == byName("outer").id && byName("b").parent == byName("outer").id,
      "nested spans record their parent")
    check(byName("outer").parent == -1 && t.spans.forall(_.run == "t"), "top span and run id")
    val off = new Tracer(enabled = false, run = "t")
    check(off.span("x")(42) == 42 && off.spans.isEmpty, "a disabled tracer records nothing")
  }

  def gate(spark: SparkSession): Unit = {
    import spark.implicits._
    val good    = Seq((1L, 10L), (2L, 20L), (3L, 30L)).toDF("k0", "k1")
    val reorder = Seq((3L, 30L), (1L, 10L), (2L, 20L)).toDF("k0", "k1")
    val altered = Seq((1L, 10L), (2L, 21L), (3L, 30L)).toDF("k0", "k1")
    val cols    = Seq("k0", "k1")
    val sig     = Gate.signature(good, cols)
    check(sig.rows == 3, "signature counts rows")
    check(Gate.signature(reorder, cols) == sig, "signature ignores row order")

    val ok = new Ledger
    Gate.compare(ok, "q", "std", Map("std" -> sig, "com" -> Gate.signature(reorder, cols)))
    check(ok.failed == 0, "identical results pass the gate")

    val bad = new Ledger
    Gate.compare(bad, "q", "std", Map("std" -> sig, "com" -> Gate.signature(altered, cols),
      "sj_std" -> sig))
    check(bad.failed == 1, s"one altered result counts as one failure, got ${bad.failed}")
    val dropped = Seq((1L, 10L), (2L, 20L)).toDF("k0", "k1")
    val bad2 = new Ledger
    Gate.compare(bad2, "q", "std", Map("std" -> sig, "com" -> Gate.signature(dropped, cols)))
    check(bad2.failed == 1, "a missing row counts as a failure")

    val flat = Seq((1L, 10L), (1L, 11L), (2L, 20L)).toDF("k0", "k1")
    check(Gate.factorizedEntries(flat, cols) == 2 + 3, "factorized entries = distinct keys per relation")

    val l = new Ledger
    l.attempt("boom")(throw new IllegalStateException("x"))
    l.attempt("fine")(1)
    check(l.attempted == 2 && l.failed == 1 && l.failFrac == 0.5, "exceptions count as failures")
  }

  def main(args: Array[String]): Unit = {
    stats()
    spans()
    val spark = SparkSession.builder.master("local[1]").appName("perfbench-selftest")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", sys.props.getOrElse("perfbench.work", ".bench_build/perfbench") + "/spark-local")
      .getOrCreate()
    try gate(spark) finally spark.stop()
    failures.foreach(f => println(s"FAIL $f"))
    println(s"self-test: ${checks - failures.length}/$checks checks passed")
    if (failures.nonEmpty) sys.exit(1)
  }
}
