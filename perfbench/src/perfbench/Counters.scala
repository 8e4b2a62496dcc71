package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.BenchBus
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Cumulative Spark counters at one instant. */
final case class Snap(jobs: Long, tasks: Long, taskMs: Long, shuffleBytes: Long) {
  def -(o: Snap): Snap =
    Snap(jobs - o.jobs, tasks - o.tasks, taskMs - o.taskMs, shuffleBytes - o.shuffleBytes)
}

/** Listener the benchmark registers on its SparkContext: counts jobs, tasks,
  * executor run time and shuffle bytes written, keeps every job's interval
  * (epoch ns, from the event timestamps), and tracks block-manager memory
  * held by RDD blocks (cached inputs and checkpoints) with a resettable peak.
  */
final class Counters extends SparkListener {
  private var jobs, tasks, taskMs, shuffleBytes = 0L
  private val jobStart = mutable.Map.empty[Int, Long]
  private val finished = mutable.ArrayBuffer.empty[(Int, Long, Long)]
  private val blockMem = mutable.Map.empty[String, Long]
  private var memNow   = 0L
  private var memPeak  = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobs += 1
    jobStart(e.jobId) = e.time
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { s =>
      finished += ((e.jobId, Clock.fromEpochMs(s), Clock.fromEpochMs(e.time)))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      taskMs += m.executorRunTime
      shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val i = e.blockUpdatedInfo
    if (i.blockId.isRDD) {
      val key = i.blockId.name
      val old = blockMem.getOrElse(key, 0L)
      val now = if (i.storageLevel.isValid) i.memSize else 0L
      if (now == 0L) blockMem.remove(key) else blockMem(key) = now
      memNow += now - old
      memPeak = math.max(memPeak, memNow)
    }
  }

  def snap(): Snap = synchronized { Snap(jobs, tasks, taskMs, shuffleBytes) }

  /** Job intervals finished since the last call. */
  def takeJobs(): Seq[(Int, Long, Long)] = synchronized {
    val out = finished.toList
    finished.clear()
    out
  }

  /** Reset the peak to the current level and return that level (bytes). */
  def resetPeak(): Long = synchronized { memPeak = memNow; memNow }

  def peakBytes: Long = synchronized { memPeak }
  def memBytes: Long = synchronized { memNow }
}

object Counters {
  def drain(sc: SparkContext): Unit = BenchBus.drain(sc)

  val MB: Double = 1024.0 * 1024.0

  /** Cumulative JVM garbage-collection time (ms). In local mode the driver
    * JVM also runs every task.
    */
  def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ > 0).sum
}
