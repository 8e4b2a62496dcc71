package jobs

import org.apache.spark.sql.SparkSession

/** Shared bootstrap for the `jobs.Run` entrypoint: one local session,
  * modest shuffle parallelism (the datasets are small), automatic broadcast
  * joins off so only the executors' own `broadcast()` hints pick build sides
  * (same configuration as the tests).
  */
object JobUtil {
  def session(app: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "8"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def emit(lines: Seq[String]): Unit = lines.foreach(println)
}
