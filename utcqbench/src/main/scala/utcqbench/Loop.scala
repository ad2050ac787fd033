package utcqbench

import scala.collection.mutable.ArrayBuffer

/** Set-up, warm-up and measurement of a workload's rounds. A round repeats
  * the same work every time, so its time moves only with the host and the
  * JIT; the measured numbers come from each operation's fastest time over
  * many rounds (see [[Fastest]]).
  */
object Loop {

  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, System.nanoTime() - t0)
  }

  /** Run the set-up `times` times: the last result and the median seconds. */
  def setUp[A](times: Int)(f: => A): (A, Double) = {
    var last: Option[A] = None
    val secs = (0 until times).map { _ =>
      val (a, ns) = timed(f)
      last = Some(a)
      ns / 1e9
    }
    (last.get, Stats.median(secs))
  }

  /** Rounds for at least `minSeconds` and `min` rounds, then until the last
    * `window` round times lie within `tol` of their median or `maxSeconds`
    * pass. The JIT keeps improving for several seconds, so a short settled
    * stretch early on is not taken as the steady state.
    */
  def warmUp(min: Int, minSeconds: Double, maxSeconds: Double, window: Int = 3, tol: Double = 0.05)(
      round: () => Long): Int = {
    val times = ArrayBuffer[Double]()
    val t0 = System.nanoTime()
    def settled = times.size >= math.max(min, window) && System.nanoTime() - t0 >= minSeconds * 1e9 && {
      val last = times.takeRight(window)
      val m = Stats.median(last.toSeq)
      last.forall(x => math.abs(x - m) <= tol * m)
    }
    while (!settled && System.nanoTime() - t0 < maxSeconds * 1e9) times += round().toDouble
    times.size
  }

  /** Measured rounds: at least `seconds` of wall time and `min` rounds, and
    * on until `enough` holds (but never past three times `seconds`). In a
    * traced run every second round is traced; the traced and untraced round
    * times give the tracing overhead. Returns (untraced, traced) round times.
    */
  def measure(seconds: Double, min: Int, tracer: Tracer, traced: Boolean)(enough: => Boolean)(
      round: () => Long): (Seq[Long], Seq[Long]) = {
    val plain, withSpans = ArrayBuffer[Long]()
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    var k = 0
    while (k < min || (elapsed < 3 * seconds && (elapsed < seconds || !enough))) {
      val on = traced && k % 2 == 1
      tracer.enabled = on
      val ns = try round() finally tracer.enabled = false
      (if (on) withSpans else plain) += ns
      k += 1
    }
    val ms = (plain ++ withSpans).map(_ / 1e6).sorted
    Console.err.println(f"utcqbench: ${ms.size} measured rounds, ms: fastest ${ms.head}%.1f, " +
      f"quartiles ${Stats.percentile(ms.toSeq, 25)}%.1f ${Stats.median(ms.toSeq)}%.1f ${Stats.percentile(ms.toSeq, 75)}%.1f, slowest ${ms.last}%.1f")
    (plain.toSeq, withSpans.toSeq)
  }

  /** Tracing overhead in percent: median traced round over median untraced. */
  def overheadPct(plain: Seq[Long], traced: Seq[Long]): Double =
    if (plain.isEmpty || traced.isEmpty) 0.0
    else (Stats.median(traced.map(_.toDouble)) / Stats.median(plain.map(_.toDouble)) - 1) * 100
}
