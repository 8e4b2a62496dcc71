package perfbench

import scala.util.Random
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical.{Filter, Join, LogicalPlan, Project}
import org.apache.spark.sql.functions.col
import repro.core._
import repro.data.{TreeData, TreeQuery}
import repro.rules.ManyToManyReorder

/** Plan search only: Algorithm 1 and the greedy heuristics over T1-style
  * random trees and large stars, and Catalyst optimisation of DataFrame
  * join chains with `ManyToManyReorder` injected. No query is executed, so
  * no Spark job runs after set-up.
  *
  * Sizes are fixed and only shapes and statistics come from the seed: the
  * DP's cost grows with the number of connected subtrees, so a drawn size
  * would make a pass's length depend mostly on the seed.
  *
  * @param treeSizes sizes of the random trees drawn for each T1 m-range
  * @param stars     sizes of the star queries (every subset is a connected
  *                  prefix: Algorithm 1's worst case)
  * @param chainSizes sizes of the join chains given to the rule
  */
final class PlanWorkload(treeSizes: Seq[Int], stars: Seq[Int], chainSizes: Seq[Int])
    extends Workload {
  val name = "plan"

  val parts: Seq[String] =
    Seq("core.Optimizer.dp_com_ms", "core.Optimizer.dp_bvp_com_ms") ++
      Optimizer.Heuristic.all.map(h => s"core.Optimizer.${h.name}.ms") :+
      "rules.ManyToManyReorder.optimize_ms"

  private val mRanges = Seq((0.05, 0.2), (0.05, 0.5), (0.1, 0.5), (0.5, 0.9))
  private val foRange = (1.0, 10.0)

  private var trees: Seq[JoinTree]   = Nil
  private var chainQs: Seq[TreeQuery] = Nil
  private var data: Map[String, Double] = Map.empty

  def setup(ctx: Ctx): Unit = {
    val rng = new Random(ctx.seed)
    val random = for (mr <- mRanges; n <- treeSizes) yield JoinTree.random(n, mr, foRange, rng)
    val starTrees = stars.zipWithIndex.map { case (n, i) =>
      val mr = mRanges(i % mRanges.length)
      JoinTree.star(n, Seq.fill(n - 1)(EdgeStats(
        mr._1 + rng.nextDouble() * (mr._2 - mr._1),
        foRange._1 + rng.nextDouble() * (foRange._2 - foRange._1))))
    }
    trees = random ++ starTrees
    var genNs = 0L
    chainQs = chainSizes.zipWithIndex.map { case (n, i) =>
      val t  = JoinTree.random(n, mRanges(i % mRanges.length), foRange, rng, driverSize = 100)
      val t0 = System.nanoTime()
      val q  = ctx.tracer.span("data.TreeData.generate") {
        TreeData.generate(ctx.spark, t, ctx.seed * 1009 + i)
      }
      genNs += System.nanoTime() - t0
      q
    }
    data = Map("data.TreeData.generate_ms" -> genNs / 1e6)
  }

  def release(): Unit = ()

  def dataMetrics: Map[String, Double] = data

  def describe: Seq[String] = Seq(
    s"trees ${trees.length} (sizes ${trees.map(_.n).mkString(",")}), " +
      s"chains ${chainQs.length} (sizes ${chainQs.map(_.tree.n).mkString(",")})")

  /** A left-deep DataFrame chain in node order: the input the rule sees. */
  private def chain(q: TreeQuery): DataFrame = {
    var cur = q.rels(0)
    for (i <- 1 until q.tree.n)
      cur = cur.join(q.rels(i), col(q.parentCol(i)) === col(q.childCol(i)))
    cur
  }

  private def rule(q: TreeQuery): ManyToManyReorder = ManyToManyReorder((_, cc) =>
    cc.stripPrefix("fk").toIntOption.filter(i => i >= 1 && i < q.tree.n).map(q.tree.stats(_)))

  /** Time Catalyst's optimisation of a fresh chain (analysis happens when
    * the chain is built, outside the timed section). Returns (ms, plan).
    */
  private def optimize(ctx: Ctx, q: TreeQuery, withRule: Boolean): (Double, LogicalPlan) = {
    val df = chain(q)
    ctx.spark.experimental.extraOptimizations = if (withRule) Seq(rule(q)) else Nil
    try {
      val t0   = System.nanoTime()
      val plan = ctx.tracer.span(if (withRule) "rules.ManyToManyReorder" else "rules.baseline") {
        df.queryExecution.optimizedPlan
      }
      ((System.nanoTime() - t0) / 1e6, plan)
    } finally ctx.spark.experimental.extraOptimizations = Nil
  }

  private def timed[A](acc: Acc, key: String)(body: => A): A = {
    val t0 = System.nanoTime()
    val a  = body
    acc.add(key, (System.nanoTime() - t0) / 1e6)
    a
  }

  private def comCost(t: JoinTree, o: Seq[Int]): Double = CostModel.com(t, o, flatOutput = false).htProbes

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  def gate(ctx: Ctx): Unit = {
    val L = ctx.ledger
    for ((t, ti) <- trees.zipWithIndex) {
      val label = s"plan/tree$ti(n=${t.n})"
      for ((o, c) <- L.attempt(s"$label/exhaustiveCom")(Optimizer.exhaustiveCom(t))) {
        L.expect(close(c, comCost(t, o)), s"$label: DP COM cost $c != CostModel.com ${comCost(t, o)}")
        for (h <- Optimizer.Heuristic.all; g <- L.attempt(s"$label/${h.name}")(Optimizer.greedy(t, h)))
          L.expect(comCost(t, g) >= c * (1 - 1e-9),
            s"$label: ${h.name} order costs ${comCost(t, g)} < DP optimum $c")
      }
      for ((o, c) <- L.attempt(s"$label/exhaustiveBvpCom")(Optimizer.exhaustiveBvpCom(t))) {
        val m = CostModel.bvpCom(t, o, flatOutput = false).total(Weights())
        L.expect(close(c, m), s"$label: DP BVP+COM cost $c != CostModel.bvpCom $m")
      }
    }
    for ((q, qi) <- chainQs.zipWithIndex; (_, plan) <- L.attempt(s"plan/chain$qi")(optimize(ctx, q, withRule = true))) {
      val got  = PlanWorkload.chainOrder(plan, q.tree.n)
      val want = Optimizer.exhaustiveCom(q.tree)._1
      L.expect(got == want, s"plan/chain$qi: rule built order $got, exhaustiveCom gives $want")
    }
  }

  private def planPass(ctx: Ctx, detail: Boolean): Acc = {
    val acc = new Acc
    val L   = ctx.ledger
    val tr  = ctx.tracer
    val gc0 = Counters.gcMs()
    for ((t, ti) <- trees.zipWithIndex) {
      val opt = L.attempt(s"plan/tree$ti/exhaustiveCom")(timed(acc, "core.Optimizer.dp_com_ms") {
        tr.span("core.Optimizer.exhaustiveCom")(Optimizer.exhaustiveCom(t))
      })
      L.attempt(s"plan/tree$ti/exhaustiveBvpCom")(timed(acc, "core.Optimizer.dp_bvp_com_ms") {
        tr.span("core.Optimizer.exhaustiveBvpCom")(Optimizer.exhaustiveBvpCom(t))
      })
      for (h <- Optimizer.Heuristic.all) {
        val g = L.attempt(s"plan/tree$ti/${h.name}")(timed(acc, s"core.Optimizer.${h.name}.ms") {
          tr.span(s"core.Optimizer.greedy:${h.name}")(Optimizer.greedy(t, h))
        })
        if (detail) for (o <- g; (_, c) <- opt) acc.put(s"tmp.ratio.${h.name}.$ti", comCost(t, o) / c)
      }
      if (detail) for ((o, _) <- opt) {
        val t0 = System.nanoTime()
        for (a <- Approach.all) tr.span("core.CostModel.cost")(CostModel.cost(t, o, a))
        acc.add("tmp.cost_ns", (System.nanoTime() - t0).toDouble)
        acc.add("tmp.cost_calls", Approach.all.length.toDouble)
      }
    }
    for ((q, qi) <- chainQs.zipWithIndex) {
      for ((ms, plan) <- L.attempt(s"plan/chain$qi")(optimize(ctx, q, withRule = true))) {
        acc.add("rules.ManyToManyReorder.optimize_ms", ms)
        if (detail && PlanWorkload.chainOrder(plan, q.tree.n) != (1 until q.tree.n).toList)
          acc.add("rules.ManyToManyReorder.rewritten", 1)
      }
      if (detail) for ((ms, _) <- L.attempt(s"plan/chain$qi/baseline")(optimize(ctx, q, withRule = false)))
        acc.add("rules.baseline_optimize_ms", ms)
    }
    if (detail) acc.put("runtime.gc_ms", (Counters.gcMs() - gc0).toDouble)
    val hs = Optimizer.Heuristic.all.map(h => acc.get(s"core.Optimizer.${h.name}.ms"))
    acc.put("plan_dp_ms", acc.get("core.Optimizer.dp_com_ms") + acc.get("core.Optimizer.dp_bvp_com_ms"))
    acc.put("plan_greedy_ms", hs.sum)
    acc.put("reorder_rule_ms", acc.get("rules.ManyToManyReorder.optimize_ms"))
    acc
  }

  def pass(ctx: Ctx): Map[String, Double] = planPass(ctx, detail = false).toMap

  def tracedPass(ctx: Ctx): Map[String, Double] = {
    val acc = planPass(ctx, detail = true)
    val out = acc.toMap.filter { case (k, _) => !k.startsWith("tmp.") }
    val ratios = for (h <- Optimizer.Heuristic.all) yield {
      val rs = acc.toMap.collect { case (k, v) if k.startsWith(s"tmp.ratio.${h.name}.") => v }.toSeq
      Map(s"core.Optimizer.${h.name}.cost_ratio_p50" -> Stats.percentile(rs, 50),
          s"core.Optimizer.${h.name}.cost_ratio_p95" -> Stats.percentile(rs, 95))
    }
    val calls = acc.get("tmp.cost_calls")
    out ++ ratios.flatten ++
      Map("core.CostModel.cost_us" -> (if (calls > 0) acc.get("tmp.cost_ns") / calls / 1e3 else 0.0),
          "rules.ManyToManyReorder.rewritten" -> acc.get("rules.ManyToManyReorder.rewritten"))
  }
}

object PlanWorkload {

  /** The join order of an optimised left-deep chain: the node id of every
    * leaf after the first, read from the leaf's key column `k<i>`.
    */
  def chainOrder(plan: LogicalPlan, n: Int): List[Int] = {
    def spine(p: LogicalPlan): List[LogicalPlan] = p match {
      case Project(_, c)                 => spine(c)
      case Filter(_, c)                  => spine(c)
      case Join(l, r, Inner, _, _)       => spine(l) :+ r
      case leaf                          => List(leaf)
    }
    def nodeOf(leaf: LogicalPlan): Int = {
      val names = leaf.output.map(_.name).toSet
      (0 until n).find(i => names(s"k$i")).getOrElse(-1)
    }
    spine(plan).tail.map(nodeOf)
  }
}
