package perfbench

/** Order statistics and interval arithmetic shared by the benchmark. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** First quartile, median, third quartile — the same numbers as Python's
    * `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
    * spreads printed here match the ones `steady.py` computes.
    */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    require(xs.length >= 2, "quartiles need at least two samples")
    val s  = xs.sorted.toIndexedSeq
    val ld = s.length
    val m  = ld + 1
    def q(i: Int): Double = {
      val j     = math.min(math.max(i * m / 4, 1), ld - 1)
      val delta = i * m - j * 4
      (s(j - 1) * (4 - delta) + s(j) * delta) / 4
    }
    (q(1), q(2), q(3))
  }

  /** Linear-interpolation percentile, p in [0, 100]. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s   = xs.sorted
    val pos = p / 100.0 * (s.length - 1)
    val lo  = math.floor(pos).toInt
    val hi  = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  /** Q-error of an estimate against a measured value, both floored at
    * `floor` (for probe counts, 1: an empty measurement against a tiny
    * estimate reads as 1).
    */
  def qError(est: Double, actual: Double, floor: Double = 1.0): Double = {
    val e = math.max(est, floor)
    val a = math.max(actual, floor)
    math.max(e / a, a / e)
  }

  /** Length of the union of half-open intervals [start, end), clipped to
    * [lo, hi).
    */
  def unionLength(intervals: Seq[(Long, Long)], lo: Long, hi: Long): Long = {
    val clipped = intervals
      .map { case (s, e) => (math.max(s, lo), math.min(e, hi)) }
      .filter { case (s, e) => e > s }
      .sortBy(_._1)
    var total = 0L
    var curS  = Long.MinValue
    var curE  = Long.MinValue
    for ((s, e) <- clipped) {
      if (s > curE) {
        if (curE > curS) total += curE - curS
        curS = s; curE = e
      } else curE = math.max(curE, e)
    }
    if (curE > curS) total += curE - curS
    total
  }
}
