package jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** The one entrypoint for the evaluation tables (DESIGN.md §5):
  * `runMain jobs.Run T<k>` prints table T<k>. T1, T4 and T8 are pure
  * cost-model experiments and start no Spark session.
  */
object Run {
  private val pure: Map[String, () => Seq[String]] = Map(
    "T1" -> (() => T1JoinOrderOpt.table(T1JoinOrderOpt.run())),
    "T4" -> (() => T4Simulation.table(T4Simulation.run())),
    "T8" -> (() => T8RobustSim.table(T8RobustSim.run())),
  )

  /** Tables that run on Spark: application name, and the table. */
  private val onSpark: Map[String, (String, SparkSession => Seq[String])] = Map(
    "T2" -> ("t2-synthetic", s => T2Synthetic.table(T2Synthetic.run(s))),
    "T3" -> ("t3-ce", s => T3Ce.table(T3Ce.run(s))),
    "T5" -> ("t5-cost-validation", s => T5CostValidation.table(T5CostValidation.run(s))),
    "T6" -> ("t6-robustness", s => T6Robustness.table(T6Robustness.run(s))),
    "T7" -> ("t7-estimation", s => T7Estimation.table(T7Estimation.run(s))),
  )

  def main(args: Array[String]): Unit = args match {
    case Array(t) if pure.contains(t) => JobUtil.emit(pure(t)())
    case Array(t) if onSpark.contains(t) =>
      val (app, table) = onSpark(t)
      val spark        = JobUtil.session(app)
      try JobUtil.emit(table(spark))
      finally spark.stop()
    case _ =>
      val names = (pure.keys ++ onSpark.keys).toSeq.sorted
      System.err.println(s"usage: jobs.Run <table>, one of: ${names.mkString(" ")}")
      sys.exit(2)
  }
}
