package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Estimators for match probability and fanout (§3.2) plus the Q-error
  * metric used to evaluate them (Fig 4).
  *
  * The probing direction is R → S on R.rKey = S.sKey.
  */
object Estimation {

  final case class Stats(m: Double, fo: Double)

  /** Ground truth by exact computation. */
  def trueStats(r: DataFrame, rKey: String, s: DataFrame, sKey: String): Stats = {
    val rCount  = r.count().toDouble
    val matched = r.join(s, r(rKey) === s(sKey), "left_semi").count().toDouble
    val joined  = r.join(s, r(rKey) === s(sKey)).count().toDouble
    Stats(
      m = if (rCount == 0) 0.0 else matched / rCount,
      fo = if (matched == 0) 1.0 else joined / matched,
    )
  }

  /** The naive uniformity/independence estimator:
    * m = V(A,S) / max(V(A,R), V(A,S)), fo = |S| / V(A,S).
    */
  def naive(r: DataFrame, rKey: String, s: DataFrame, sKey: String): Stats = {
    val vR = r.select(rKey).distinct().count().toDouble
    val vS = s.select(sKey).distinct().count().toDouble
    val nS = s.count().toDouble
    Stats(
      m = if (math.max(vR, vS) == 0) 0.0 else vS / math.max(vR, vS),
      fo = if (vS == 0) 1.0 else nS / vS,
    )
  }

  /** Correlated-sampling estimator: draw a uniform sample of R, count each
    * sampled tuple's matches in S; m = fraction matched, fo = mean matches
    * among the matched. The k-row sample is the broadcast build side of the
    * sample ⋈ S join, so S is probed in place, without a shuffle.
    */
  def sampled(r: DataFrame, rKey: String, s: DataFrame, sKey: String,
              sampleSize: Int, seed: Long): Stats = {
    val sample = r.orderBy(rand(seed)).limit(sampleSize)
      .withColumn("__rid", monotonically_increasing_id())
      .persist()
    try {
      val k = sample.count().toDouble
      val counts = broadcast(sample)
        .join(s, sample(rKey) === s(sKey))
        .groupBy("__rid").agg(count(lit(1)).as("c"))
        .agg(count(lit(1)).as("matched"), sum(col("c")).as("total"))
        .collect()(0)
      val matched = Option(counts.get(0)).map(_.toString.toDouble).getOrElse(0.0)
      val total   = Option(counts.get(1)).map(_.toString.toDouble).getOrElse(0.0)
      Stats(
        m = if (k == 0) 0.0 else matched / k,
        fo = if (matched == 0) 1.0 else total / matched,
      )
    } finally { sample.unpersist(blocking = false); () }
  }

  /** Q-error: max(est/actual, actual/est), with a floor so zero estimates
    * map to a large but finite error.
    */
  def qError(est: Double, actual: Double): Double = {
    val e = math.max(est, 1e-6)
    val a = math.max(actual, 1e-6)
    math.max(e / a, a / e)
  }
}
