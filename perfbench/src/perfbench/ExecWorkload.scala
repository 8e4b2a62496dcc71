package perfbench

import scala.util.Random
import repro.Oracle
import repro.core._
import repro.data.{TreeData, TreeQuery}
import repro.engine.{Engine, ExecResult}

/** A query shape: a name, its number of edges, and the tree it builds. */
final case class Shape(name: String, edges: Int, mk: Seq[EdgeStats] => JoinTree)

object Shape {
  def star(n: Int): Shape = Shape(s"star$n", n - 1, st => JoinTree.star(n, st))
}

/** A query drawn from the seed and accepted by the model before any data
  * exists: N·m_T(full tree) is the expected number of driver tuples with a
  * full match, E[OUT] the expected flat output. `rejected` counts the draws
  * turned down before this one.
  */
final case class Drawn(shape: String, tree: JoinTree, order: List[Int], nmT: Double,
                       eOut: Double, rejected: Int)

final case class Live(d: Drawn, q: TreeQuery, rows: Long)

object ExecWorkload {
  val MinSurvivors = 100.0

  /** Draw per-edge (m, fo) uniformly until N·m_T >= `MinSurvivors` (the
    * result is not vacuous) and E[OUT] lies in `outRange` (the output, and
    * with it the per-row share of a pass, is about the same on every seed).
    */
  def draw(shape: Shape, mRange: (Double, Double), foRange: (Double, Double),
           driverN: Long, outRange: (Double, Double), rng: Random): Drawn = {
    def u(r: (Double, Double)) = r._1 + rng.nextDouble() * (r._2 - r._1)
    var rejected = 0
    while (rejected < 10000) {
      val t0   = shape.mk(Seq.fill(shape.edges)(EdgeStats(u(mRange), u(foRange))))
      val tree = new JoinTree(t0.parent, t0.stats, t0.probeCost, driverN.toDouble)
      val nmT  = driverN * Survival.treeSurvival(tree, (1 << tree.n) - 1)
      val out  = tree.expectedOutput
      if (nmT >= MinSurvivors && out >= outRange._1 && out <= outRange._2) {
        val order = Optimizer.greedy(tree, Optimizer.Heuristic.SurvivalProb)
        return Drawn(shape.name, tree, order, nmT, out, rejected)
      }
      rejected += 1
    }
    throw new IllegalStateException(
      s"${shape.name}: no draw with N·m_T >= $MinSurvivors and E[OUT] in $outRange in 10000 tries")
  }

  /** The same tree at another driver cardinality. */
  def resized(t: JoinTree, driverN: Long): JoinTree =
    new JoinTree(t.parent, t.stats, t.probeCost, driverN.toDouble)
}

/** A workload that executes queries through `Engine.run`, every order from
  * `Optimizer.greedy(SurvivalProb)`.
  *
  * Measured passes run every variant with probe counting off. The traced
  * pass runs them once more with counting off (listener and span detail),
  * then once with counting on, followed by `Estimation.sampled` on every
  * edge and the cost model on those sampled statistics.
  *
  * @param oracleN driver cardinality of the copy of each query that the
  *                gate checks against DuckDB (the oracle loads every row
  *                through JDBC, which takes ~11 s at 10⁴ on 4 vCPUs)
  */
final class ExecWorkload(
    val name: String,
    shapes: Seq[Shape],
    mRange: (Double, Double),
    foRange: (Double, Double),
    driverN: Long,
    outRange: (Double, Double),
    oracleN: Long,
    sampleSize: Int = 1000,
) extends Workload {

  val parts: Seq[String] = Variants.all.map(v => s"${v.key}_ms")

  private var live: Seq[Live]                          = Nil
  private var data: Map[String, Double]                = Map.empty
  private var truth: Map[(Int, Int), (Double, Double)] = Map.empty

  def setup(ctx: Ctx): Unit = {
    val drawn = shapes.zipWithIndex.map { case (s, i) =>
      ExecWorkload.draw(s, mRange, foRange, driverN, outRange, new Random(ctx.seed * 7919 + i))
    }
    ctx.drain()
    val j0    = ctx.counters.snap()
    var genNs = 0L
    live = drawn.zipWithIndex.map { case (d, i) =>
      val t0 = System.nanoTime()
      val q  = ctx.tracer.span("data.TreeData.generate") {
        TreeData.generate(ctx.spark, d.tree, ctx.seed * 1009 + i)
      }
      genNs += System.nanoTime() - t0
      val rows = q.rels.map { r => r.persist(); r.count() }.sum
      Live(d, q, rows)
    }
    ctx.drain()
    data = Map(
      "data.TreeData.generate_ms" -> genNs / 1e6,
      "data.rows"                 -> live.map(_.rows).sum.toDouble,
      "data.cached_mb"            -> ctx.counters.memBytes / Counters.MB,
      "data.jobs"                 -> (ctx.counters.snap() - j0).jobs.toDouble,
    )
  }

  def release(): Unit = live.foreach(_.q.rels.foreach(_.unpersist(blocking = true)))

  def dataMetrics: Map[String, Double] = data

  def describe: Seq[String] = live.map { l =>
    f"query ${l.d.shape}%-7s N=$driverN N*m_T=${l.d.nmT}%.1f E[OUT]=${l.d.eOut}%.0f " +
      s"rejected_draws=${l.d.rejected} order=${l.d.order.mkString(",")} " +
      s"stats=${l.d.tree.stats.drop(1).map(e => f"(${e.m}%.3f,${e.fo}%.3f)").mkString(";")}"
  }

  private def run(q: TreeQuery, order: Seq[Int], v: Variants.Variant, counting: Boolean): ExecResult =
    Engine.run(q, order, v.approach, counting = counting, flatOutput = v.flat)

  /** Every variant once, untimed: all flat variants must return STD's row
    * count and checksum, COM's factorized entries must match the flat
    * result, and STD must equal DuckDB on the `oracleN` copy.
    */
  def gate(ctx: Ctx): Unit =
    for ((l, i) <- live.zipWithIndex) {
      val label  = s"$name/${l.d.shape}"
      var sigs   = Map.empty[String, Sig]
      var fact   = Option.empty[Long]
      var expect = Option.empty[Long]
      for (v <- Variants.all) {
        val before = Isolation.persistentIds(ctx.sc)
        ctx.ledger.attempt(s"$label/${v.key}") {
          try {
            val res = run(l.q, l.d.order, v, counting = false)
            res.flat match {
              case Some(df) =>
                val sig = Gate.signature(df, l.q.outputCols)
                ctx.ledger.expect(sig.rows == res.log.outRows,
                  s"$label/${v.key}: counted ${res.log.outRows} rows, result holds ${sig.rows}")
                sigs += v.key -> sig
                if (v.key == "std") expect = Some(Gate.factorizedEntries(df, l.q.keyCol))
              case None => fact = Some(res.log.outRows)
            }
          } finally Isolation.release(ctx.sc, before)
        }
      }
      Gate.compare(ctx.ledger, label, "std", sigs)
      sigs.get("std").foreach(s => ctx.ledger.expect(s.rows > 0, s"$label: empty result"))
      for (f <- fact; e <- expect)
        ctx.ledger.expect(f == e, s"$label/com_fact: $f entries, flat result implies $e")

      ctx.ledger.attempt(s"$label/oracle") {
        val small = TreeData.generate(ctx.spark, ExecWorkload.resized(l.d.tree, oracleN),
          ctx.seed * 1009 + i)
        val res = run(small, l.d.order, Variants.all.head, counting = false)
        Oracle.assertEquivalent(res.flat.get, small.flatSql, small.oracleTables: _*)
      }
    }

  /** One pass over every (query, variant). `detail` adds the listener and
    * span measurements around each execution (outside its timed section);
    * `counting` turns probe counting on and adds the estimation step.
    */
  private def execPass(ctx: Ctx, counting: Boolean, detail: Boolean): Acc = {
    val acc = new Acc
    val gc0 = Counters.gcMs()
    for ((l, qi) <- live.zipWithIndex; v <- Variants.all) {
      val before = Isolation.persistentIds(ctx.sc)
      var s0     = Snap(0, 0, 0, 0)
      var base   = 0L
      if (detail) {
        ctx.drain(); s0 = ctx.counters.snap(); base = ctx.counters.resetPeak()
        ctx.counters.takeJobs()
      }
      ctx.ledger.attempt(s"$name/${l.d.shape}/${v.key}") {
        val t0  = System.nanoTime()
        val res = ctx.tracer.span(s"engine.Engine.run:${v.key}:${l.d.shape}") {
          run(l.q, l.d.order, v, counting)
        }
        val ms = (System.nanoTime() - t0) / 1e6
        acc.add(s"${v.key}_ms", ms)
        acc.add("tmp.total", ms)
        acc.add("engine.out_rows", res.log.outRows.toDouble)
        if (counting) {
          val pred = CostModel.cost(l.d.tree, l.d.order, v.approach, flatOutput = v.flat).htProbes
          acc.add(s"engine.${v.key}.ht_probes", res.log.totalHt.toDouble)
          acc.add(s"engine.${v.key}.bv_probes", res.log.bvProbes.toDouble)
          acc.add(s"engine.${v.key}.semi_probes", res.log.semiProbes.toDouble)
          acc.add(s"tmp.pred.${v.key}", pred)
          acc.add(s"tmp.ht.${v.key}.$qi", res.log.totalHt.toDouble)
        }
      }
      if (detail) {
        ctx.drain()
        val d    = ctx.counters.snap() - s0
        val peak = ctx.counters.peakBytes - base
        val run  = ctx.tracer.spans.filter(_.name.startsWith("engine.Engine.run:")).last
        for ((id, s, e) <- ctx.counters.takeJobs()) ctx.tracer.adopt(s"spark.job.$id", s, e)
        val all = ctx.tracer.spans
        val k   = s"engine.${v.key}"
        acc.add(s"$k.jobs", d.jobs.toDouble)
        acc.add(s"$k.tasks", d.tasks.toDouble)
        acc.add(s"$k.task_ms", d.taskMs.toDouble)
        acc.add(s"$k.shuffle_mb", d.shuffleBytes / Counters.MB)
        acc.add(s"$k.job_wall_ms", Trace.coveredNs(all, run, "spark.job.") / 1e6)
        acc.add(s"$k.driver_ms", Trace.selfNs(all, run) / 1e6)
        acc.put(s"$k.storage_mb", math.max(acc.get(s"$k.storage_mb"), peak / Counters.MB))
      }
      val retained = Isolation.release(ctx.sc, before)
      if (detail) acc.add(s"engine.${v.key}.retained_mb", retained / Counters.MB)
    }
    if (detail) {
      acc.put("runtime.gc_ms", (Counters.gcMs() - gc0).toDouble)
      acc.put("storage_peak_mb", Variants.all.map(v => acc.get(s"engine.${v.key}.storage_mb")).max)
    }
    if (counting) estimatePass(ctx, acc)
    acc
  }

  /** `Estimation.sampled` on every edge of every query, and the Q-error of
    * the cost model's hash-table probes on those sampled statistics against
    * the probes the engine measured in the same pass.
    */
  private def estimatePass(ctx: Ctx, acc: Acc): Unit = {
    val qerr        = Seq.newBuilder[Double]
    val mErr, foErr = Seq.newBuilder[Double]
    ctx.drain()
    val j0 = ctx.counters.snap()
    for ((l, qi) <- live.zipWithIndex) {
      val t = l.d.tree
      val sampled = (1 until t.n).map { i =>
        val p  = t.parent(i)
        val t0 = System.nanoTime()
        val st = ctx.ledger.attempt(s"$name/${l.d.shape}/sampled$i") {
          ctx.tracer.span("core.Estimation.sampled") {
            Estimation.sampled(l.q.rels(p), l.q.parentCol(i), l.q.rels(i), l.q.childCol(i),
              sampleSize, ctx.seed * 31 + i)
          }
        }.getOrElse(Estimation.Stats(t.stats(i).m, t.stats(i).fo))
        acc.add("estimate_ms", (System.nanoTime() - t0) / 1e6)
        truth.get((qi, i)).foreach { case (m, fo) =>
          mErr += Stats.qError(st.m, m, floor = 1e-6)
          foErr += Stats.qError(st.fo, fo, floor = 1e-6)
        }
        EdgeStats(math.min(1.0, st.m), math.max(1.0, st.fo))
      }
      val sTree = new JoinTree(t.parent, (EdgeStats(1, 1) +: sampled).toArray, t.probeCost,
        t.driverSize)
      for (v <- Variants.all) {
        val pred = CostModel.cost(sTree, l.d.order, v.approach, flatOutput = v.flat).htProbes
        qerr += Stats.qError(pred, acc.get(s"tmp.ht.${v.key}.$qi"))
      }
    }
    ctx.drain()
    acc.put("core.Estimation.jobs", (ctx.counters.snap() - j0).jobs.toDouble)
    acc.put("core.Estimation.sampled_ms", acc.get("estimate_ms"))
    acc.put("probe_qerror", Stats.median(qerr.result()))
    val me = mErr.result()
    val fe = foErr.result()
    if (me.nonEmpty) acc.put("core.Estimation.m_qerror", Stats.median(me))
    if (fe.nonEmpty) acc.put("core.Estimation.fo_qerror", Stats.median(fe))
  }

  def pass(ctx: Ctx): Map[String, Double] = execPass(ctx, counting = false, detail = false).toMap

  /** One counting-off pass with listener and span detail, then one
    * counting-on pass with estimation; their wall-time ratio per variant is
    * the counting overhead.
    */
  def tracedPass(ctx: Ctx): Map[String, Double] = {
    if (truth.isEmpty)
      truth = (for ((l, qi) <- live.zipWithIndex; i <- 1 until l.d.tree.n)
        yield (qi, i) -> TreeData.measuredStats(l.q, i)).toMap
    val off = execPass(ctx, counting = false, detail = true)
    val on  = execPass(ctx, counting = true, detail = false)
    val out = new Acc
    for ((k, v) <- off.toMap if !k.startsWith("tmp.")) out.put(k, v)
    for ((k, v) <- on.toMap if k.endsWith("_probes") || k.startsWith("core.Estimation") ||
           k == "probe_qerror" || k == "estimate_ms") out.put(k, v)
    for (v <- Variants.all) {
      val base = off.get(s"${v.key}_ms")
      out.put(s"engine.${v.key}.count_overhead", if (base > 0) on.get(s"${v.key}_ms") / base else 0.0)
      val pred = on.get(s"tmp.pred.${v.key}")
      out.put(s"engine.${v.key}.probe_ratio",
        if (pred > 0) on.get(s"engine.${v.key}.ht_probes") / pred else 0.0)
    }
    out.put("explain_ms", on.get("tmp.total"))
    out.toMap
  }
}
