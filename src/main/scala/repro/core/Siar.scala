package repro.core

/** Sample Interval Adaptive Representation (SIAR, §4.1).
  *
  * The shared time sequence T(Tuʲ) = ⟨t0, t1, …, t(n-1)⟩ is represented as
  * ⟨t0, Δ0, …, Δ(n-2)⟩ with Δi = (t(i+1) − ti) − Ts, where Ts is the default
  * sample interval. Real sample intervals deviate from Ts by 0 or ±1 second
  * most of the time (Fig. 4a), so the deltas are concentrated near zero —
  * the input distribution the improved Exp-Golomb code is built for.
  */
object Siar {

  /** ⟨t0, Δ0, …⟩ for absolute timestamps `times` with default interval Ts. */
  def represent(times: Array[Int], ts: Int): (Int, Array[Int]) = {
    require(times.nonEmpty)
    val deltas = new Array[Int](times.length - 1)
    var i = 0
    while (i < deltas.length) {
      deltas(i) = (times(i + 1) - times(i)) - ts
      i += 1
    }
    (times(0), deltas)
  }

  /** The timestamp after `t`, whose Δ is `delta`. */
  def next(t: Int, delta: Int, ts: Int): Int = t + ts + delta

  /** Inverse of [[represent]]. */
  def restore(t0: Int, deltas: Array[Int], ts: Int): Array[Int] = {
    val out = new Array[Int](deltas.length + 1)
    out(0) = t0
    var i = 0
    while (i < deltas.length) {
      out(i + 1) = next(out(i), deltas(i), ts)
      i += 1
    }
    out
  }
}
