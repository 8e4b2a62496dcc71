package repro.engine

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec
import repro.core.{Approach, EdgeStats, JoinTree, Optimizer}
import repro.data.{TreeData, TreeQuery}

/** The number of Spark jobs one `Engine.run` starts. Every hash table is a
  * broadcast build side over a relation, so an uncounted STD run is one
  * query: one broadcast job per join plus the final count. COM keeps its
  * surviving-key sets incrementally and checkpoints only what is read
  * twice, so a star COM run is one query as well, and counted runs re-read
  * checkpoints instead of re-deriving subtrees.
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

  private lazy val pathTree = JoinTree.centeredPath(7, Seq.fill(6)(EdgeStats(0.7, 2.0)),
    driverSize = 2000)
  private lazy val pathOrder = Optimizer.greedy(pathTree, Optimizer.Heuristic.SurvivalProb)
  private lazy val path: TreeQuery = {
    val q = TreeData.generate(spark, pathTree, seed = 62L)
    q.rels.foreach { r => r.persist(); r.count() }
    q
  }

  override def afterAll(): Unit = {
    q.rels.foreach(_.unpersist(blocking = true))
    path.rels.foreach(_.unpersist(blocking = true))
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

  /** Jobs of one run on the centered 7-path. */
  private def pathJobs(a: Approach, flat: Boolean = true, counting: Boolean = false): Int = {
    val query = path // generated and cached outside the measured run
    jobsOf(Engine.run(query, pathOrder, a, counting, flatOutput = flat))._2
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

  test("STD is one broadcast pipeline: at most n + 1 jobs on the 7-star and the centered 7-path") {
    val (_, star) = jobs(Approach.Std, flat = true)
    assert(star <= tree.n + 1, s"star: $star jobs")
    val p = pathJobs(Approach.Std)
    assert(p <= pathTree.n + 1, s"path: $p jobs")
  }

  test("flat COM on the 7-star starts at most STD's jobs + n") {
    val (_, std) = jobs(Approach.Std, flat = true)
    val (_, com) = jobs(Approach.Com, flat = true)
    assert(com <= std + tree.n, s"COM $com jobs, STD $std jobs")
  }

  test("factorized COM on the 7-star starts at most n + 3 jobs") {
    val (_, n) = jobs(Approach.Com, flat = false)
    assert(n <= tree.n + 3, s"$n jobs")
  }

  test("counted COM on the centered 7-path starts at most 6n jobs") {
    val n = pathJobs(Approach.Com, counting = true)
    assert(n <= 6 * pathTree.n, s"$n jobs")
  }
}
