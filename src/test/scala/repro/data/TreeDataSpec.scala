package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{EdgeStats, JoinTree}

class TreeDataSpec extends SparkSpec {

  override def beforeAll(): Unit = {
    super.beforeAll()
    spark.conf.set("spark.sql.shuffle.partitions", "8")
  }

  private lazy val tree = JoinTree(
    Seq((0, 0.5, 2.0), (0, 0.3, 3.0), (1, 0.6, 1.0)), driverSize = 4000)
  private lazy val q = TreeData.generate(spark, tree, seed = 1L)

  test("driver holds exactly N rows with keys 1..N") {
    assert(q.rels(0).count() == 4000)
    val mm = q.rels(0).agg(min("k0"), max("k0")).collect()(0)
    assert(mm.getLong(0) == 1 && mm.getLong(1) == 4000)
  }

  test("every relation's key column is row-unique") {
    for (i <- 0 until tree.n)
      assert(q.rels(i).select(q.keyCol(i)).distinct().count() == q.rels(i).count(), s"node $i")
  }

  test("child foreign keys always reference existing parent keys") {
    for (i <- 1 until tree.n) {
      val p = tree.parent(i)
      val dangling = q.rels(i).join(q.rels(p),
        col(q.childCol(i)) === col(q.parentCol(i)), "left_anti").count()
      assert(dangling == 0, s"node $i")
    }
  }

  test("measured match probabilities land near the requested values") {
    for (i <- 1 until tree.n) {
      val (m, _) = TreeData.measuredStats(q, i)
      assert(math.abs(m - tree.stats(i).m) < 0.05,
        s"node $i: measured m=$m requested ${tree.stats(i).m}")
    }
  }

  test("measured fanouts land near the requested values") {
    for (i <- 1 until tree.n) {
      val (_, fo) = TreeData.measuredStats(q, i)
      assert(math.abs(fo - tree.stats(i).fo) < 0.15,
        s"node $i: measured fo=$fo requested ${tree.stats(i).fo}")
    }
  }

  test("fractional fanouts average out (fo = 2.5)") {
    val t  = JoinTree(Seq((0, 0.8, 2.5)), driverSize = 5000)
    val qq = TreeData.generate(spark, t, seed = 3L)
    val (_, fo) = TreeData.measuredStats(qq, 1)
    assert(fo > 2.35 && fo < 2.65, s"fo=$fo")
  }

  test("generation is deterministic in the seed") {
    val q2 = TreeData.generate(spark, tree, seed = 1L)
    for (i <- 0 until tree.n) {
      assert(q2.rels(i).count() == q.rels(i).count())
      val a = q.rels(i).agg(sum(col(q.keyCol(i)))).collect()(0).getLong(0)
      val b = q2.rels(i).agg(sum(col(q.keyCol(i)))).collect()(0).getLong(0)
      assert(a == b, s"node $i checksum")
    }
  }

  test("different seeds give different data") {
    val q2 = TreeData.generate(spark, tree, seed = 99L)
    val a  = q.rels(1).agg(sum("k1")).collect()(0).getLong(0)
    val b  = q2.rels(1).agg(sum("k1")).collect()(0).getLong(0)
    assert(a != b)
  }

  test("edges are independent: sibling subtrees have uncorrelated matches") {
    // Match fractions of two siblings measured jointly: P(both) ≈ P(a)P(b).
    val t  = JoinTree(Seq((0, 0.5, 1.0), (0, 0.5, 1.0)), driverSize = 8000)
    val qq = TreeData.generate(spark, t, seed = 5L)
    val both = qq.rels(0)
      .join(qq.rels(1), col("k0") === col("fk1"), "left_semi")
      .join(qq.rels(2), col("k0") === col("fk2"), "left_semi")
      .count().toDouble / 8000
    assert(math.abs(both - 0.25) < 0.04, s"joint match fraction $both")
  }

  test("deep chains keep exact key packing (depth 4)") {
    val t  = JoinTree(Seq((0, 0.9, 2.0), (1, 0.9, 2.0), (2, 0.9, 2.0), (3, 0.9, 2.0)),
      driverSize = 500)
    val qq = TreeData.generate(spark, t, seed = 7L)
    for (i <- 1 to 4)
      assert(qq.rels(i).select(s"k$i").distinct().count() == qq.rels(i).count())
  }

  test("fanout above the packing limit is rejected") {
    val t = JoinTree(Seq((0, 0.5, 16.0)), driverSize = 100)
    intercept[IllegalArgumentException](TreeData.generate(spark, t).rels(1).count())
  }

  test("a path too deep for key packing is rejected") {
    // 4·15 + ⌈log₂(101)⌉ = 67 bits > 63
    val t = JoinTree((0 until 15).map(i => (i, 0.5, 1.0)), driverSize = 100)
    val e = intercept[IllegalArgumentException](TreeData.generate(spark, t))
    assert(e.getMessage.contains("depth 15") && e.getMessage.contains("driver size 100"))
  }

  test("flatSql and oracleTables agree with a direct Spark join") {
    val flat = q.rels(0)
      .join(q.rels(1), col("k0") === col("fk1"))
      .join(q.rels(2), col("k0") === col("fk2"))
      .join(q.rels(3), col("k1") === col("fk3"))
      .select(q.outputCols.map(col): _*)
    repro.Oracle.assertEquivalent(flat, q.flatSql, q.oracleTables: _*)
  }
}
