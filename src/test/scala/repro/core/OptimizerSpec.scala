package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class OptimizerSpec extends AnyFunSuite {

  private def comCost(tree: JoinTree)(order: Seq[Int]): Double =
    CostModel.com(tree, order, flatOutput = false).htProbes

  test("exhaustive DP equals brute force for COM cost on random trees") {
    val rng = new Random(13)
    for (i <- 0 until 30) {
      val n    = 4 + rng.nextInt(4)
      val tree = JoinTree.random(n, (0.05, 0.9), (1, 8), rng, driverSize = 100)
      val (dpOrder, dpCost) = Optimizer.exhaustiveCom(tree)
      val (_, bfCost)       = Optimizer.bruteForce(tree, comCost(tree))
      assert(math.abs(dpCost - bfCost) <= 1e-9 * math.max(1.0, bfCost), s"tree $i")
      assert(math.abs(comCost(tree)(dpOrder) - dpCost) <= 1e-9 * math.max(1.0, dpCost))
    }
  }

  test("Thm 3.3: DP equals brute force under BVP+COM (fixed driver)") {
    val rng = new Random(17)
    val w   = Weights()
    val eps = 0.05
    def orderCost(tree: JoinTree)(order: Seq[Int]): Double = {
      val c = CostModel.bvpCom(tree, order, flatOutput = false, eps)
      c.htProbes + w.bv * c.bvProbes
    }
    for (i <- 0 until 20) {
      val n    = 4 + rng.nextInt(4)
      val tree = JoinTree.random(n, (0.05, 0.9), (1, 8), rng, driverSize = 100)
      val (_, dpCost) = Optimizer.exhaustiveBvpCom(tree, eps, w)
      val (_, bfCost) = Optimizer.bruteForce(tree, orderCost(tree))
      assert(math.abs(dpCost - bfCost) <= 1e-6 * math.max(1.0, bfCost), s"tree $i")
    }
  }

  test("Thm 3.3: DP equals brute force under BVP+COM with probe weight 2") {
    val rng = new Random(37)
    val w   = Weights(probe = 2.0)
    val eps = 0.05
    def orderCost(tree: JoinTree)(order: Seq[Int]): Double =
      CostModel.bvpCom(tree, order, flatOutput = false, eps).total(w)
    for (i <- 0 until 20) {
      val n    = 4 + rng.nextInt(4)
      val tree = JoinTree.random(n, (0.05, 0.9), (1, 8), rng, driverSize = 100)
      val (dpOrder, dpCost) = Optimizer.exhaustiveBvpCom(tree, eps, w)
      val (_, bfCost)       = Optimizer.bruteForce(tree, orderCost(tree))
      assert(math.abs(dpCost - bfCost) <= 1e-6 * math.max(1.0, bfCost), s"tree $i")
      assert(math.abs(orderCost(tree)(dpOrder) - dpCost) <= 1e-6 * math.max(1.0, dpCost))
    }
  }

  test("DP handles the 20-node star (the worst case for subtree count)") {
    val rng  = new Random(19)
    val tree = JoinTree.star(20,
      Seq.fill(19)(EdgeStats(0.1 + rng.nextDouble() * 0.8, 1 + rng.nextDouble() * 9)),
      driverSize = 100)
    val (order, cost) = Optimizer.exhaustiveCom(tree)
    CostModel.validateOrder(tree, order)
    // For a star, COM cost depends only on match probabilities and the
    // optimal order is ascending m.
    val byM = (1 until 20).sortBy(tree.stats(_).m)
    assert(math.abs(comCost(tree)(byM) - cost) < 1e-9 * cost)
  }

  test("Thm 3.1: the COM cost function violates the ASI property") {
    // Paper's construction: driver joins R2, R3; R4,R5 under R2; R6,R7
    // under R3; all m = 0.5, all fo = 1 except fo2, fo3.
    def build(fo2: Double, fo3: Double) = JoinTree(Seq(
      (0, 0.5, fo2), // 1 = R2
      (0, 0.5, fo3), // 2 = R3
      (1, 0.5, 1.0), // 3 = R4
      (1, 0.5, 1.0), // 4 = R5
      (2, 0.5, 1.0), // 5 = R6
      (2, 0.5, 1.0), // 6 = R7
    ), driverSize = 1000)
    // U = R5 (node 4), V = R6 (node 5) in context A = R2,R3,R4,R7; B = rest.
    val o1 = Seq(1, 2, 3, 6, 4, 5) // ... R5 before R6
    val o2 = Seq(1, 2, 3, 6, 5, 4) // ... R6 before R5
    val ta = build(2.0, 6.0)
    val tb = build(6.0, 2.0)
    val prefA = comCost(ta)(o1) - comCost(ta)(o2) // preference under fo2<fo3
    val prefB = comCost(tb)(o1) - comCost(tb)(o2) // preference under fo2>fo3
    // The preferred relative order of U and V flips with fo2 vs fo3 even
    // though every rank function must score them identically (symmetry).
    assert(prefA * prefB < 0, s"expected preference flip, got $prefA / $prefB")
  }

  test("Thm 3.2: all three heuristics can be arbitrarily worse than optimal") {
    // Hide a dead-end (m=0) behind relation X while a long almost-selective
    // chain distracts every greedy heuristic.
    def build(k: Int): JoinTree = {
      val edges = scala.collection.mutable.ListBuffer[(Int, Double, Double)]()
      edges += ((0, 1.0, 1.0))                  // 1 = X
      edges += ((1, 0.0, 1.0))                  // 2 = Z (m = 0!)
      var parent = 0
      for (_ <- 0 until k) {                    // chain Y1..Yk
        edges += ((parent, 0.99, 1.0))
        parent = edges.length // next chain node's parent is the one just added
      }
      JoinTree(edges.toSeq, driverSize = 1000)
    }
    for (k <- Seq(6, 12)) {
      val tree = build(k)
      val (_, opt) = Optimizer.exhaustiveCom(tree)
      for (h <- Optimizer.Heuristic.all) {
        val c = comCost(tree)(Optimizer.greedy(tree, h))
        assert(c / opt > k / 4.0, s"$h at k=$k: ratio ${c / opt}")
      }
    }
  }

  test("greedy heuristics always produce valid orders") {
    val rng = new Random(23)
    for (_ <- 0 until 20; h <- Optimizer.Heuristic.all) {
      val tree = JoinTree.random(4 + rng.nextInt(10), (0.05, 0.9), (1, 10), rng)
      CostModel.validateOrder(tree, Optimizer.greedy(tree, h))
    }
  }

  test("survival heuristic is optimal on star queries") {
    val rng = new Random(29)
    for (_ <- 0 until 20) {
      val tree = JoinTree.star(8,
        Seq.fill(7)(EdgeStats(0.05 + rng.nextDouble() * 0.85, 1 + rng.nextDouble() * 9)),
        driverSize = 100)
      val g   = comCost(tree)(Optimizer.greedy(tree, Optimizer.Heuristic.SurvivalProb))
      val opt = Optimizer.exhaustiveCom(tree)._2
      assert(math.abs(g - opt) <= 1e-9 * math.max(1.0, opt))
    }
  }

  test("rank-ordering heuristic can be much worse than survival on high fanout") {
    // A star where one join has tiny m but huge fo (s > 1) and another has
    // moderate m with fo 1: rank ordering (by s) joins the wrong one first.
    val tree = JoinTree.star(3, Seq(EdgeStats(0.01, 100), EdgeStats(0.9, 1.0)),
      driverSize = 1000)
    val rank = comCost(tree)(Optimizer.greedy(tree, Optimizer.Heuristic.RankOrdering))
    val surv = comCost(tree)(Optimizer.greedy(tree, Optimizer.Heuristic.SurvivalProb))
    assert(surv < rank)
  }

  test("randomOrder produces valid orders, and different seeds differ") {
    val tree = JoinTree.star(8, Seq.fill(7)(EdgeStats(0.5, 2)))
    val a = Optimizer.randomOrder(tree, new Random(1))
    val b = Optimizer.randomOrder(tree, new Random(2))
    CostModel.validateOrder(tree, a)
    CostModel.validateOrder(tree, b)
    assert(a != b)
  }

  test("stepCostStd reproduces the classical prefix-product probes") {
    val tree = JoinTree(Seq((0, 0.5, 4.0), (0, 0.25, 2.0)), driverSize = 100)
    val sc = Optimizer.stepCostStd(tree)
    assert(sc(1, 1) == 100.0)                  // nothing evaluated yet
    assert(sc(1 | 2, 2) == 100.0 * 2.0)        // after node 1 (s=2)
  }

  test("exhaustive DP rejects oversized trees") {
    val tree = JoinTree.star(26, Seq.fill(25)(EdgeStats(0.5, 2)))
    intercept[IllegalArgumentException](Optimizer.exhaustiveCom(tree))
  }
}
