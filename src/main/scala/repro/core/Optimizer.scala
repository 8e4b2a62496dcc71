package repro.core

import scala.util.Random

/** Join-order search for left-deep plans over a rooted join tree (§3.4).
  *
  * The driver is fixed as node 0 throughout (the paper optimizes per driver
  * and takes the outer minimum over drivers; our experiments fix the driver,
  * as the paper's do).
  */
object Optimizer {
  import Survival.bit

  /** STD: c_l × N Π s over the evaluated prefix (mask-determined). */
  def stepCostStd(tree: JoinTree): (Int, Int) => Double =
    (mask, l) => {
      var t = tree.driverSize
      var i = 1
      while (i < tree.n) { if ((mask & bit(i)) != 0) t *= tree.stats(i).s; i += 1 }
      tree.probeCost(l) * t
    }

  // ------------------------------------------------------------------
  // Algorithm 1: exhaustive DP over connected subtrees containing the root.
  // ------------------------------------------------------------------

  /** Optimal order for an additive step-cost function. Enumerates only the
    * *connected* subtrees containing the root (the valid prefixes of
    * Algorithm 1), so the running time is O(#CTs · n log #CTs) rather than a
    * blind O(2^n · n) scan — much faster for non-star trees, exactly as the
    * paper observes. Returns (order, cost).
    */
  def exhaustive(tree: JoinTree, stepCost: (Int, Int) => Double): (List[Int], Double) = {
    val n = tree.n
    require(n <= 25, s"exhaustive DP limited to 25 relations, got $n")

    // Enumerate connected masks containing the root by BFS expansion.
    val seen  = new java.util.HashSet[Integer]()
    val queue = new java.util.ArrayDeque[Integer]()
    seen.add(1); queue.add(1)
    val masksBuf = new scala.collection.mutable.ArrayBuffer[Int]()
    while (!queue.isEmpty) {
      val m = queue.poll().intValue()
      masksBuf += m
      for (i <- tree.eligible(m)) {
        val m2: Integer = m | bit(i)
        if (seen.add(m2)) queue.add(m2)
      }
    }
    val masks = masksBuf.toArray
    java.util.Arrays.sort(masks) // any prefix of a mask is numerically smaller
    val kids = Array.tabulate(n)(l => tree.children(l).foldLeft(0)((m, c) => m | bit(c)))

    // best(k) / choice(k): cheapest cost of evaluating masks(k), and the
    // relation it evaluates last; masks(0) is the driver alone.
    val best   = new Array[Double](masks.length)
    val choice = new Array[Int](masks.length)
    var k      = 1
    while (k < masks.length) {
      val mask     = masks(k)
      var bestCost = Double.PositiveInfinity
      var bestL    = -1
      var l        = 1
      while (l < n) {
        if ((mask & bit(l)) != 0 && (mask & kids(l)) == 0) {
          val prefix = mask ^ bit(l)
          val j      = java.util.Arrays.binarySearch(masks, 0, k, prefix)
          if (j >= 0) {
            val c = best(j) + stepCost(prefix, l)
            if (c < bestCost) { bestCost = c; bestL = l }
          }
        }
        l += 1
      }
      best(k) = bestCost
      choice(k) = bestL
      k += 1
    }

    var order = List.empty[Int]
    var cur   = masks.length - 1 // the full mask
    while (cur != 0) {
      val l = choice(cur)
      require(l >= 0, "DP failed to cover the full mask — tree not connected?")
      order = l :: order
      cur = java.util.Arrays.binarySearch(masks, 0, cur, masks(cur) ^ bit(l))
    }
    (order, best(masks.length - 1))
  }

  /** Optimal COM order via Algorithm 1. */
  def exhaustiveCom(tree: JoinTree): (List[Int], Double) = {
    val step = new Survival.Step(tree, None)
    val w    = Weights()
    exhaustive(tree, step.cost(_, _, w))
  }

  /** Optimal BVP+COM order via Algorithm 1 (Thm 3.3). Adds the constant
    * driver-level bitvector sweep to the returned cost.
    */
  def exhaustiveBvpCom(tree: JoinTree, eps: Double = CostModel.DefaultEps,
                       w: Weights = Weights()): (List[Int], Double) = {
    val step   = new Survival.Step(tree, Some(eps))
    val (o, c) = exhaustive(tree, step.cost(_, _, w))
    (o, c + w.bv * step.driverBv)
  }

  /** Brute force over every valid permutation — test oracle only. */
  def bruteForce(tree: JoinTree, orderCost: Seq[Int] => Double): (List[Int], Double) = {
    var bestOrder = List.empty[Int]
    var bestCost  = Double.PositiveInfinity
    def rec(mask: Int, acc: List[Int]): Unit =
      if (mask == tree.fullMask) {
        val c = orderCost(acc.reverse)
        if (c < bestCost) { bestCost = c; bestOrder = acc.reverse }
      } else tree.eligible(mask).foreach(l => rec(mask | bit(l), l :: acc))
    rec(1, Nil)
    (bestOrder, bestCost)
  }

  // ------------------------------------------------------------------
  // Greedy heuristics (§3.4).
  // ------------------------------------------------------------------

  sealed trait Heuristic { def name: String }
  object Heuristic {
    /** Rank ordering on s = m×fo — what a classical optimizer does. */
    case object RankOrdering extends Heuristic { val name = "rank" }
    /** Minimize entries appended to the representation by the next join. */
    case object ExpectedTuples extends Heuristic { val name = "exp-tuples" }
    /** Minimize the driver-tuple survival probability of the prefix. */
    case object SurvivalProb extends Heuristic { val name = "survival" }
    val all: Seq[Heuristic] = Seq(RankOrdering, ExpectedTuples, SurvivalProb)
  }

  /** The precedence walker every heuristic order is built by: from the
    * driver, repeatedly joins `next(mask, eligible)`, where `eligible` lists
    * in node order the relations whose parent is in the evaluated set
    * `mask`.
    */
  def walk(tree: JoinTree)(next: (Int, List[Int]) => Int): List[Int] = {
    val order = List.newBuilder[Int]
    var mask  = 1
    while (mask != tree.fullMask) {
      val l = next(mask, tree.eligible(mask))
      order += l
      mask |= bit(l)
    }
    order.result()
  }

  def greedy(tree: JoinTree, h: Heuristic): List[Int] = {
    val score: (Int, Int) => Double = h match {
      case Heuristic.RankOrdering =>
        (_, l) => (tree.stats(l).s - 1.0) / tree.probeCost(l)
      case Heuristic.ExpectedTuples =>
        (mask, l) => Survival.probesCom(tree, mask, l) * tree.stats(l).s
      case Heuristic.SurvivalProb =>
        (mask, l) => Survival.treeSurvival(tree, mask | bit(l))
    }
    walk(tree)((mask, eligible) => eligible.minBy(score(mask, _)))
  }

  /** A uniformly random valid order (for robustness experiments). */
  def randomOrder(tree: JoinTree, rng: Random): List[Int] =
    walk(tree)((_, eligible) => eligible(rng.nextInt(eligible.length)))
}
