package utcqbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable

/** One timed call into a layer: its wall interval, the thread CPU time it
  * used, the span that caused it (−1 for the root of a request) and the
  * request it belongs to. The layer is the name's first component.
  */
final case class Span(id: Int, parent: Int, request: Long, name: String,
    startNs: Long, endNs: Long, cpuNs: Long) {
  def wallNs: Long = endNs - startNs
  def layer: String = name.takeWhile(_ != '.')
}

/** Self time of one layer: wall time not covered by child spans, and the
  * thread CPU time (busy) within it; the rest is waiting.
  */
final case class LayerTime(selfNs: Long, busyNs: Long) {
  def waitNs: Long = math.max(0L, selfNs - busyNs)
}

/** In-memory span recorder. Spans are kept until the run ends and then
  * written out; while disabled, a span is a plain call.
  */
final class Tracer {
  private val threads = ManagementFactory.getThreadMXBean
  private val done = mutable.ArrayBuffer[Span]()
  private var open: List[Int] = Nil
  private var nextId = 0
  private var currentRequest = -1L
  var enabled: Boolean = false

  def spans: IndexedSeq[Span] = done.toIndexedSeq

  /** Run `f` as the root span of a new request. */
  def request[A](name: String)(f: => A): A = {
    if (enabled) currentRequest += 1
    span(name)(f)
  }

  def span[A](name: String)(f: => A): A =
    if (!enabled) f
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      // Wall brackets CPU so that wait = wall − CPU is not negative.
      val t0 = System.nanoTime()
      val c0 = threads.getCurrentThreadCpuTime
      try f
      finally {
        val c1 = threads.getCurrentThreadCpuTime
        val t1 = System.nanoTime()
        open = open.tail
        done += Span(id, parent, currentRequest, name, t0, t1, c1 - c0)
      }
    }
}

object Spans {

  /** Self and busy time per layer: each span minus its children. */
  def byLayer(spans: Seq[Span]): Map[String, LayerTime] = {
    val childWall = mutable.Map[Int, Long]().withDefaultValue(0L)
    val childCpu = mutable.Map[Int, Long]().withDefaultValue(0L)
    spans.foreach { s =>
      if (s.parent >= 0) {
        childWall(s.parent) += s.wallNs
        childCpu(s.parent) += s.cpuNs
      }
    }
    spans.groupBy(_.layer).map { case (layer, ss) =>
      layer -> LayerTime(
        ss.map(s => s.wallNs - childWall(s.id)).sum,
        ss.map(s => s.cpuNs - childCpu(s.id)).sum)
    }
  }

  /** Mean wall and CPU nanoseconds of the spans called `name`. */
  def meanOf(spans: Seq[Span], name: String): (Double, Double) = {
    val ss = spans.filter(_.name == name)
    if (ss.isEmpty) (0.0, 0.0)
    else (ss.map(_.wallNs).sum.toDouble / ss.size, ss.map(_.cpuNs).sum.toDouble / ss.size)
  }

  /** Write spans as tab-separated lines, times relative to the first span. */
  def write(path: Path, spans: Seq[Span]): Unit = {
    Files.createDirectories(path.getParent)
    val t0 = if (spans.isEmpty) 0L else spans.map(_.startNs).min
    val lines = "id\tparent\trequest\tname\tstart_ns\tend_ns\tcpu_ns" +:
      spans.sortBy(_.id).map { s =>
        s"${s.id}\t${s.parent}\t${s.request}\t${s.name}\t${s.startNs - t0}\t${s.endNs - t0}\t${s.cpuNs}"
      }
    Files.write(path, (lines.mkString("\n") + "\n").getBytes(StandardCharsets.UTF_8))
  }
}
