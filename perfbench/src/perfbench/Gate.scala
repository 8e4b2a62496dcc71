package perfbench

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import org.apache.spark.SparkContext
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DecimalType

/** Operations attempted and failed in one benchmark run. A failure is an
  * exception or a wrong answer; both count against `fail_frac`.
  */
final class Ledger {
  var attempted = 0L
  var failed    = 0L
  val problems  = ArrayBuffer.empty[String]

  def attempt[A](what: => String)(body: => A): Option[A] = {
    attempted += 1
    try Some(body)
    catch {
      case NonFatal(e) =>
        failed += 1
        problems += s"$what: $e"
        None
    }
  }

  def expect(ok: Boolean, what: => String): Unit =
    if (!ok) { failed += 1; problems += what }

  def failFrac: Double = if (attempted == 0) 0.0 else failed.toDouble / attempted
}

/** Order-independent result signature: row count and the exact sum of
  * `xxhash64` over the output columns.
  */
final case class Sig(rows: Long, hash: BigDecimal)

object Gate {

  def signature(df: DataFrame, cols: Seq[String]): Sig = {
    val r = df.agg(count(lit(1)), sum(xxhash64(cols.map(col): _*).cast(DecimalType(38, 0))))
      .collect()(0)
    Sig(r.getLong(0), if (r.isNullAt(1)) BigDecimal(0) else BigDecimal(r.getDecimal(1)))
  }

  /** Entries a factorized (COM) result holds: for every relation, the rows
    * that take part in at least one output tuple — the distinct values of
    * its row-unique key column in the flat result.
    */
  def factorizedEntries(flat: DataFrame, keyCols: Seq[String]): Long = {
    val r = flat.agg(countDistinct(col(keyCols.head)), keyCols.tail.map(c => countDistinct(col(c))): _*)
      .collect()(0)
    keyCols.indices.map(r.getLong).sum
  }

  /** Record a failure for every approach whose signature differs from the
    * reference approach's.
    */
  def compare(ledger: Ledger, query: String, ref: String, sigs: Map[String, Sig]): Unit =
    sigs.get(ref) match {
      case None => ledger.expect(ok = false, s"$query: no reference result from $ref")
      case Some(want) =>
        for ((k, got) <- sigs if k != ref)
          ledger.expect(got == want, s"$query: $k returned $got, $ref returned $want")
    }
}

/** Run isolation: an execution may leave persisted blocks behind (COM and
  * SJ `localCheckpoint`s). They are measured and released after every
  * execution so no run inherits another's memory.
  */
object Isolation {

  def persistentIds(sc: SparkContext): Set[Int] = sc.getPersistentRDDs.keySet.toSet

  /** Unpersist every RDD persisted since `before`; returns the bytes they
    * held in memory.
    */
  def release(sc: SparkContext, before: Set[Int]): Long = {
    val fresh = sc.getPersistentRDDs.filter { case (id, _) => !before(id) }
    val bytes = sc.getRDDStorageInfo.filter(i => fresh.contains(i.id)).map(_.memSize).sum
    fresh.values.foreach(_.unpersist(blocking = true))
    bytes
  }
}
