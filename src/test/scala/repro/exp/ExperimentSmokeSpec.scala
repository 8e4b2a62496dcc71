package repro.exp

import org.scalatest.funsuite.AnyFunSuite

/** Fast sanity checks of the pure-math experiment harnesses (the full runs
  * live in bench/). */
class ExperimentSmokeSpec extends AnyFunSuite {

  test("T1 harness: survival heuristic is the best of the three (small run)") {
    val results = T1JoinOrderOpt.run(trees = 10, maxNodes = 10, seed = 3L)
    assert(results.nonEmpty)
    val medians = Med.medians(results)
    // survival must not be worse than rank ordering in the median
    for (mr <- T1JoinOrderOpt.mRanges) {
      assert(medians((mr, "survival")) <= medians((mr, "rank")) + 1e-9,
        s"range $mr: ${medians((mr, "survival"))} vs ${medians((mr, "rank"))}")
    }
    assert(T1JoinOrderOpt.table(results).nonEmpty)
  }

  private object Med {
    def medians(rs: Seq[T1JoinOrderOpt.Result]): Map[((Double, Double), String), Double] =
      rs.map(r => (r.mRange, r.heuristic) -> Tables.percentile(r.ratios, 50)).toMap
  }

  test("T1 ratios are always >= 1 (optimal is a lower bound)") {
    val results = T1JoinOrderOpt.run(trees = 5, maxNodes = 9, seed = 5L)
    assert(results.forall(_.ratios.forall(_ >= 1.0 - 1e-9)))
  }

  test("T4 harness: COM beats STD variants at high match probabilities") {
    val cells = T4Simulation.run()
    assert(cells.nonEmpty)
    val hi = cells.filter(c => c.m >= 0.8 && c.fo == 5.0)
    for (c <- hi) {
      assert(c.costs("COM") <= c.costs("BVP+STD"),
        s"${c.shape} m=${c.m}: ${c.costs}")
    }
    assert(T4Simulation.table(cells).nonEmpty)
  }

  test("T4 harness: at low match probability BVP+COM beats plain COM") {
    val cells = T4Simulation.run()
    val lo = cells.filter(c => c.m <= 0.2 && c.fo == 5.0)
    val better = lo.count(c => c.costs("BVP+COM") <= c.costs("COM"))
    assert(better >= lo.size / 2, s"BVP+COM better in $better of ${lo.size}")
  }

  test("T4 costs grow with match probability for every approach") {
    val cells = T4Simulation.run().filter(c => c.shape == "star7" && c.fo == 2.0)
    val byM = cells.sortBy(_.m)
    for (a <- T4Simulation.approaches.map(_.name)) {
      assert(byM.head.costs(a) <= byM.last.costs(a), a)
    }
  }

  test("T8 harness: high error inflates the selectivity model's penalty") {
    val cells = T8RobustSim.run(nJoins = 8, trials = 50, seed = 7L)
    assert(cells.nonEmpty)
    val lowErr  = cells.filter(_.err.startsWith("low"))
    val highErr = cells.filter(_.err.startsWith("high"))
    assert(Tables.mean(highErr.map(_.stdMeanPct)) >= Tables.mean(lowErr.map(_.stdMeanPct)))
    assert(T8RobustSim.table(cells).nonEmpty)
  }

  test("T8 harness: COM model penalties never blow past the selectivity model on average") {
    val cells = T8RobustSim.run(nJoins = 8, trials = 50, seed = 9L)
    val agg = Tables.mean(cells.map(c => c.comMeanPct - c.stdMeanPct))
    assert(agg <= 1.0, s"aggregate mean difference $agg")
  }

  test("T2 table keeps the measurements of an over-cap draw and shows its status") {
    val rows = Seq(
      T2Synthetic.RunRow("star7", "[0.5,0.9]", "COM", "flat", "over-cap", 200L, 100.0),
      T2Synthetic.RunRow("star7", "[0.5,0.9]", "STD", "flat", "over-cap", 400L, 300.0),
      T2Synthetic.RunRow("star7", "[0.5,0.9]", "BVP+STD", "flat", "TIMEOUT", -1L, -1.0))
    val lines = T2Synthetic.table(rows)
    val std   = lines.find(l => l.contains(" STD ") && l.contains("over-cap")).get
    assert(std.contains("400") && std.contains("2.00") && std.contains("3.00"), std)
    assert(lines.exists(l => l.contains("TIMEOUT")))
  }

  test("Tables.percentile and render behave") {
    val xs = Seq(1.0, 2.0, 3.0, 4.0)
    assert(Tables.percentile(xs, 50) == 2.0)
    assert(Tables.percentile(xs, 100) == 4.0)
    val t = Tables.render("x", Seq("a", "b"), Seq(Seq("1", "2")))
    assert(t.length == 4)
  }

  test("Tables.pearson on a perfect linear relation is 1") {
    val xs = Seq(1.0, 2.0, 3.0)
    assert(math.abs(Tables.pearson(xs, xs.map(_ * 3 + 1)) - 1.0) < 1e-12)
  }
}
