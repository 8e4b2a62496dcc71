package perfbench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core.Approach

/** Everything one benchmark run shares: the session, the registered
  * listener, the span recorder, the seed and the failure ledger.
  */
final class Ctx(val spark: SparkSession, val counters: Counters, val tracer: Tracer,
                val seed: Long) {
  val ledger = new Ledger
  def sc = spark.sparkContext
  def drain(): Unit = Counters.drain(sc)
}

/** Metric accumulator: values added under one name are summed. */
final class Acc {
  private val m = mutable.LinkedHashMap.empty[String, Double]
  def add(k: String, v: Double): Unit = m(k) = m.getOrElse(k, 0.0) + v
  def put(k: String, v: Double): Unit = m(k) = v
  def get(k: String): Double = m.getOrElse(k, 0.0)
  def toMap: Map[String, Double] = m.toMap
}

/** One named workload. `setup` builds and materialises the inputs (timed
  * by the caller, repeated for `setup_s`); `gate` runs every operation
  * once, untimed, checking answers (it doubles as the warm-up); `pass`
  * runs the measured operation set once and returns the time of each of
  * its `parts`; `tracedPass` runs the per-layer measurement once.
  */
trait Workload {
  def name: String
  def parts: Seq[String]
  def setup(ctx: Ctx): Unit
  def release(): Unit
  def dataMetrics: Map[String, Double]
  def describe: Seq[String]
  def gate(ctx: Ctx): Unit
  def pass(ctx: Ctx): Map[String, Double]
  def tracedPass(ctx: Ctx): Map[String, Double]
}

/** The seven execution variants the engine is timed under: the paper's six
  * approaches with flat output, plus COM with factorized output.
  */
object Variants {
  import Approach._
  final case class Variant(key: String, approach: Approach, flat: Boolean)
  val all: Seq[Variant] = Seq(
    Variant("std", Std, flat = true),
    Variant("com", Com, flat = true),
    Variant("bvp_std", BvpStd, flat = true),
    Variant("bvp_com", BvpCom, flat = true),
    Variant("sj_std", SjStd, flat = true),
    Variant("sj_com", SjCom, flat = true),
    Variant("com_fact", Com, flat = false),
  )
}
