package repro.rules

import org.apache.spark.sql.catalyst.expressions.{AttributeReference, EqualTo, Expression}
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical.{Join, JoinHint, LogicalPlan, Project}
import org.apache.spark.sql.catalyst.rules.Rule
import org.apache.spark.sql.catalyst.trees.TreeNodeTag
import repro.core.{EdgeStats, JoinTree, Optimizer}

/** The paper's plan search as a Catalyst optimizer rule.
  *
  * Detects a left-deep chain of inner equi-joins, extracts the rooted join
  * tree (driver = the chain's leftmost leaf), attaches the caller-supplied
  * match-probability/fanout statistics, runs the paper's join-order search
  * (exhaustive Algorithm 1 for small queries, survival-probability greedy
  * otherwise — §3.4), and rebuilds the chain in the chosen order.
  *
  * Statistics are keyed by the equi-join column-name pair
  * (parent column, child column) — in this repository every relation's
  * columns are globally uniquely named, which makes the key unambiguous.
  * Chains with an unknown edge, non-equi conditions, or bushy shapes are
  * left untouched, and so are chains of more than `JoinTree.MaxRelations`
  * leaves, sub-chains included.
  *
  * Inject via `spark.experimental.extraOptimizations`. A rebuilt chain is
  * tagged so the fixpoint driver does not re-enter it.
  */
final case class ManyToManyReorder(
    statsOf: (String, String) => Option[EdgeStats],
    exhaustiveUpTo: Int = 12,
) extends Rule[LogicalPlan] {

  private val reorderedTag = TreeNodeTag[Boolean]("repro.m2mReordered")

  /** Column pruning interleaves attribute-only Projects between the joins;
    * strip them when walking the chain (the rewrite re-establishes the
    * original output schema with a single top-level Project).
    */
  @annotation.tailrec
  private def stripPrune(p: LogicalPlan): LogicalPlan = p match {
    case Project(list, child) if list.forall(_.isInstanceOf[AttributeReference]) =>
      stripPrune(child)
    case other => other
  }

  private def containsJoin(p: LogicalPlan): Boolean =
    p.exists(_.isInstanceOf[Join])

  /** Flatten a left-deep chain of inner equi-joins into (leaves, conds). */
  private def flatten(plan: LogicalPlan): (List[LogicalPlan], List[EqualTo]) =
    stripPrune(plan) match {
      case Join(l, r: LogicalPlan, Inner, Some(c: EqualTo), _) if !containsJoin(r) =>
        val (ls, cs) = flatten(l)
        (ls :+ r, cs :+ c)
      case other => (List(other), Nil)
    }

  /** Tag the `joins` joins of a chain's left spine so no sub-chain of it
    * is rewritten either.
    */
  @annotation.tailrec
  private def tagSpine(p: LogicalPlan, joins: Int): Unit =
    if (joins > 0) stripPrune(p) match {
      case jj: Join => jj.setTagValue(reorderedTag, true); tagSpine(jj.left, joins - 1)
      case _        =>
    }

  private def ownerOf(leaves: List[LogicalPlan], a: AttributeReference): Option[Int] = {
    val hits = leaves.zipWithIndex.collect {
      case (p, i) if p.outputSet.exists(_.exprId == a.exprId) => i
    }
    hits match { case List(i) => Some(i); case _ => None }
  }

  /** Column name by which an attribute is known (for stats lookup). */
  private def nameOf(a: AttributeReference): String = a.name

  override def apply(plan: LogicalPlan): LogicalPlan = plan.transformDown {
    case j: Join if j.joinType == Inner && j.getTagValue(reorderedTag).isEmpty =>
      rewrite(j).getOrElse(j)
  }

  private def rewrite(j: Join): Option[LogicalPlan] = {
    val (leaves, conds) = flatten(j)
    val n = leaves.length
    if (n < 3 || conds.length != n - 1) return None
    if (n > JoinTree.MaxRelations) { tagSpine(j, n - 1); return None }

    // conds(i-1) connects leaf i to exactly one earlier leaf (its parent).
    val parent  = Array.fill(n)(-1)
    val edgeKey = Array.fill(n)(("", ""))
    val joinCond = Array.fill[Expression](n)(null)
    for (i <- 1 until n) {
      val c = conds(i - 1)
      (c.left, c.right) match {
        case (a: AttributeReference, b: AttributeReference) =>
          (ownerOf(leaves, a), ownerOf(leaves, b)) match {
            case (Some(x), Some(y)) if x != y =>
              val (child, par, pc, cc) =
                if (x == i) (x, y, nameOf(b), nameOf(a))
                else if (y == i) (y, x, nameOf(a), nameOf(b))
                else return None // condition does not attach the new leaf
              if (par >= child) return None
              parent(child) = par
              edgeKey(child) = (pc, cc)
              joinCond(child) = c
            case _ => return None
          }
        case _ => return None
      }
    }
    if ((1 until n).exists(parent(_) < 0)) return None

    val stats = (1 until n).map { i =>
      statsOf(edgeKey(i)._1, edgeKey(i)._2) match {
        case Some(s) => (parent(i), s.m, s.fo)
        case None    => return None
      }
    }
    val tree = JoinTree(stats, driverSize = 1.0)
    val order =
      if (n <= exhaustiveUpTo) Optimizer.exhaustiveCom(tree)._1
      else Optimizer.greedy(tree, Optimizer.Heuristic.SurvivalProb)

    // Already in the chosen order? Leave the plan untouched (fixpoint).
    if (order == (1 until n).toList) { j.setTagValue(reorderedTag, true); return None }

    var rebuilt: LogicalPlan = leaves(0)
    for (l <- order)
      rebuilt = Join(rebuilt, leaves(l), Inner, Some(joinCond(l)), JoinHint.NONE)
    rebuilt.foreach {
      case jj: Join => jj.setTagValue(reorderedTag, true)
      case _        =>
    }
    // Join reordering permutes the output attribute order; restore the
    // original schema so parent operators are unaffected.
    Some(Project(j.output, rebuilt))
  }
}
