package repro.engine

import scala.util.Random
import org.apache.spark.sql.DataFrame
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import repro.SparkSpec
import repro.core.{Approach, JoinTree, Optimizer}
import repro.data.TreeData

/** Randomized oracle property: on random join trees and random valid
  * orders, all six approaches return identical rows, equal to DuckDB, and
  * factorized COM counts exactly the distinct per-relation keys of the flat
  * result. Each case is a fresh Spark dataset, so the property runs only a
  * handful of cases, from a fixed seed.
  */
class ExecutorPropertySpec extends SparkSpec {

  override def beforeAll(): Unit = {
    super.beforeAll()
    spark.conf.set("spark.sql.shuffle.partitions", "8")
  }

  /** A tree of 3–7 relations at driver 300 and a data seed, which also
    * draws the order. Runs are uncounted, as in the benchmark; the counted
    * executors are checked on the fixed trees of the other engine suites.
    */
  private val caseGen: Gen[(JoinTree, Long)] = for {
    n        <- Gen.choose(3, 7)
    treeSeed <- Gen.choose(0L, 100000L)
    seed     <- Gen.choose(0L, 100000L)
  } yield (JoinTree.random(n, (0.5, 0.95), (1.0, 3.0), new Random(treeSeed), driverSize = 300),
    seed)

  test("property: random trees × random orders — six approaches agree with DuckDB") {
    val prop = Prop.forAllNoShrink(caseGen) { case (tree, seed) =>
      val q     = TreeData.generate(spark, tree, seed)
      q.rels.foreach { r => r.persist(); r.count() }
      try {
        val order = Optimizer.randomOrder(tree, new Random(seed))
        val label = s"parents=${tree.parent.mkString(",")} order=$order"
        def run(a: Approach, flat: Boolean = true): ExecResult =
          Engine.run(q, order, a, counting = false, flatOutput = flat)
        def sorted(df: DataFrame): Seq[Seq[Any]] =
          df.collect().map(_.toSeq).toSeq.sortBy(_.mkString(","))
        val stdDf = run(Approach.Std).flat.get
        repro.Oracle.assertEquivalent(stdDf, q.flatSql, q.oracleTables: _*)
        val std     = sorted(stdDf)
        val entries = q.keyCol.indices.map(i => std.map(_(i)).distinct.size.toLong).sum
        val fact    = run(Approach.Com, flat = false).log.outRows
        Prop.all(Approach.all.filter(_ != Approach.Std)
          .map(a => (sorted(run(a).flat.get) == std) :| s"${a.name} $label"): _*) &&
          (fact == entries) :| s"factorized $fact vs $entries distinct keys, $label"
      } finally q.rels.foreach(_.unpersist(blocking = true))
    }
    val params = Test.Parameters.default
      .withMinSuccessfulTests(6)
      .withWorkers(1)
      .withInitialSeed(Seed(4242L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result, Pretty.Params(2)))
  }
}
