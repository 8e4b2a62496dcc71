package repro.engine

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec
import repro.core.{Approach, EdgeStats, JoinTree, Optimizer}
import repro.data.{TreeData, TreeQuery}

/** The number of Spark jobs one `Engine.run` starts with counting off: COM
  * keeps its surviving-key sets incrementally, so a step costs a bounded
  * number of jobs (two broadcasts) however deep the tree or long the order.
  */
class ExecutorJobsSpec extends SparkSpec {

  override def beforeAll(): Unit = {
    super.beforeAll()
    spark.conf.set("spark.sql.shuffle.partitions", "8")
  }

  private lazy val tree = JoinTree.star(7, Seq.fill(6)(EdgeStats(0.7, 2.0)), driverSize = 2000)
  private lazy val order = Optimizer.greedy(tree, Optimizer.Heuristic.SurvivalProb)
  private lazy val q: TreeQuery = {
    val q = TreeData.generate(spark, tree, seed = 61L)
    q.rels.foreach { r => r.persist(); r.count() }
    q
  }

  override def afterAll(): Unit = {
    q.rels.foreach(_.unpersist(blocking = true))
    super.afterAll()
  }

  private var groups = 0

  /** Jobs started by `body`, counted by a listener on the job group set
    * around it. A sentinel job submitted afterwards marks the end of the
    * bus: its start event is posted after every earlier job's.
    */
  private def jobsOf[A](body: => A): (A, Int) = {
    val sc       = spark.sparkContext
    groups += 1
    val group    = s"executor-jobs-$groups"
    val sentinel = s"$group-end"
    val started  = new AtomicInteger
    val drained  = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull match {
          case `group`    => started.incrementAndGet()
          case `sentinel` => drained.countDown()
          case _          =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "measured run")
      val a = try body finally sc.clearJobGroup()
      sc.setJobGroup(sentinel, "listener bus sentinel")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      assert(drained.await(60, TimeUnit.SECONDS), "listener bus did not drain")
      (a, started.get)
    } finally sc.removeSparkListener(listener)
  }

  private def jobs(a: Approach, flat: Boolean): (Long, Int) = {
    val query    = q // generated and cached outside the measured run
    val (res, n) = jobsOf(Engine.run(query, order, a, counting = false, flatOutput = flat))
    (res.log.outRows, n)
  }

  test("factorized COM on a 7-relation star starts at most 2n + 2 jobs") {
    val (_, n) = jobs(Approach.Com, flat = false)
    assert(n <= 2 * tree.n + 2, s"$n jobs")
  }

  test("flat COM starts at most 2n + STD's jobs + 2") {
    val (_, std) = jobs(Approach.Std, flat = true)
    val (_, com) = jobs(Approach.Com, flat = true)
    assert(com <= 2 * tree.n + std + 2, s"COM $com jobs, STD $std jobs")
  }

  test("all six approaches return the same row count on the 7-relation star") {
    val expected = jobs(Approach.Std, flat = true)._1
    assert(expected > 0)
    for (a <- Approach.all)
      assert(jobs(a, flat = true)._1 == expected, a.name)
  }
}
