package org.apache.spark

/** The listener bus is asynchronous; counters read right after a Spark
  * action may miss its last events. `drain` blocks until every posted
  * event has been delivered. (`listenerBus` is package-private to Spark,
  * hence this file's package.)
  */
object BenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
