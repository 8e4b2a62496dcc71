package perfbench

import scala.collection.mutable.ArrayBuffer

/** Epoch-aligned nanosecond clock: `System.nanoTime` resolution, offset so
  * that it lines up (to within a millisecond) with the epoch-millisecond
  * timestamps Spark puts on listener events.
  */
object Clock {
  private val base = System.currentTimeMillis() * 1000000L - System.nanoTime()
  def now(): Long = base + System.nanoTime()
  def fromEpochMs(ms: Long): Long = ms * 1000000L
}

/** One timed interval. `parent` is the id of the enclosing span (-1 at the
  * top); every span of one benchmark run carries the same `run` id.
  */
final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int, run: String) {
  def durNs: Long = end - start
}

/** In-memory span recorder. When disabled, `span` only evaluates its body,
  * so untraced runs pay nothing for it.
  */
final class Tracer(val enabled: Boolean, val run: String) {
  private val buf    = ArrayBuffer.empty[Span]
  private var stack  = List.empty[Int]
  private var nextId = 0

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val s = Clock.now()
      try body
      finally {
        stack = stack.tail
        buf += Span(id, name, s, Clock.now(), parent, run)
      }
    }

  /** Attach an externally timed interval (a Spark job) as a child of the
    * innermost recorded span that contains its start.
    */
  def adopt(name: String, start: Long, end: Long): Unit =
    if (enabled) {
      val owner = buf.filter(s => s.start <= start && start < s.end)
      if (owner.nonEmpty) {
        val p = owner.maxBy(_.start)
        buf += Span(nextId, name, start, end, p.id, run)
        nextId += 1
      }
    }

  def spans: Seq[Span] = buf.toList

  def toJson: String =
    buf.map { s =>
      s"""{"id":${s.id},"name":"${s.name}","start_ns":${s.start},"end_ns":${s.end},"parent":${s.parent},"run":"${s.run}"}"""
    }.mkString("[\n", ",\n", "\n]\n")
}

object Trace {

  def children(all: Seq[Span], of: Span): Seq[Span] = all.filter(_.parent == of.id)

  /** Self time: the span's duration minus the part of it that its direct
    * children cover (overlapping children are counted once).
    */
  def selfNs(all: Seq[Span], of: Span): Long =
    of.durNs - Stats.unionLength(children(all, of).map(c => (c.start, c.end)), of.start, of.end)

  /** Time the span's direct children named with `prefix` cover. */
  def coveredNs(all: Seq[Span], of: Span, prefix: String): Long =
    Stats.unionLength(
      children(all, of).filter(_.name.startsWith(prefix)).map(c => (c.start, c.end)),
      of.start, of.end)
}
