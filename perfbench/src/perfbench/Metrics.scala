package perfbench

/** Every metric the benchmark reports, with its unit. `run.py` checks the
  * printed names and units against BENCHMARK.json.
  */
object Metrics {
  final case class M(name: String, unit: String)

  val endToEnd: Seq[M] = Seq(M("setup_s", "s"), M("pass_ms", "ms"))

  private val variantKeys = Variants.all.map(_.key)

  val perLayer: Seq[M] =
    variantKeys.map(k => M(s"${k}_ms", "ms")) ++
    Seq(
      M("storage_peak_mb", "MB"),
      M("plan_dp_ms", "ms"), M("plan_greedy_ms", "ms"), M("reorder_rule_ms", "ms"),
      M("explain_ms", "ms"), M("estimate_ms", "ms"),
      M("probe_qerror", "ratio"), M("fail_frac", "ratio"),
    ) ++
    variantKeys.flatMap { k =>
      val e = s"engine.$k"
      Seq(
        M(s"$e.jobs", "count"), M(s"$e.tasks", "count"), M(s"$e.job_wall_ms", "ms"),
        M(s"$e.driver_ms", "ms"), M(s"$e.storage_mb", "MB"), M(s"$e.retained_mb", "MB"),
        M(s"$e.task_ms", "ms"), M(s"$e.shuffle_mb", "MB"), M(s"$e.ht_probes", "count"),
      ) ++
      (if (k.startsWith("bvp_")) Seq(M(s"$e.bv_probes", "count")) else Nil) ++
      (if (k.startsWith("sj_")) Seq(M(s"$e.semi_probes", "count")) else Nil) ++
      Seq(M(s"$e.count_overhead", "ratio"), M(s"$e.probe_ratio", "ratio"))
    } ++
    Seq(M("core.Optimizer.dp_com_ms", "ms"), M("core.Optimizer.dp_bvp_com_ms", "ms")) ++
    repro.core.Optimizer.Heuristic.all.flatMap { h =>
      val o = s"core.Optimizer.${h.name}"
      Seq(M(s"$o.ms", "ms"), M(s"$o.cost_ratio_p50", "ratio"), M(s"$o.cost_ratio_p95", "ratio"))
    } ++
    Seq(
      M("core.CostModel.cost_us", "us"),
      M("core.Estimation.sampled_ms", "ms"), M("core.Estimation.jobs", "count"),
      M("core.Estimation.m_qerror", "ratio"), M("core.Estimation.fo_qerror", "ratio"),
      M("rules.ManyToManyReorder.optimize_ms", "ms"), M("rules.baseline_optimize_ms", "ms"),
      M("rules.ManyToManyReorder.rewritten", "count"),
      M("data.TreeData.generate_ms", "ms"), M("data.rows", "count"), M("data.cached_mb", "MB"),
      M("data.jobs", "count"),
      M("runtime.gc_ms", "ms"), M("engine.out_rows", "count"),
    )
}
