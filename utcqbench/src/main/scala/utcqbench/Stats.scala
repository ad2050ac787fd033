package utcqbench

/** The fastest time of each of `n` operations over the rounds that record
  * it. Every round repeats the same operations on the same inputs, so an
  * operation's times differ only in what the host did meanwhile. On a
  * shared host a core runs stretches of a second or more at up to twice
  * its time while the neighbours are busy, and how much of a run falls in
  * them changes from run to run; an operation's fastest time is that of a
  * quiet moment, and over many rounds every operation meets one.
  */
final class Fastest(n: Int) {
  private val ns = Array.fill(n)(Long.MaxValue)

  def record(i: Int, t: Long): Unit = if (t < ns(i)) ns(i) = t

  def times: IndexedSeq[Long] = {
    require(ns.forall(_ != Long.MaxValue), "an operation was never measured")
    ns.toIndexedSeq
  }

  def totalNs: Long = times.sum

  def ms(indices: Seq[Int]): Seq[Double] = { val t = times; indices.map(t(_) / 1e6) }
}

/** Order statistics behind every reported number.
  *
  * Percentiles use the nearest-rank rule on whole percents, so p90 of 100
  * samples is the 90th smallest and has exactly 10 samples beyond it.
  */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** 1-based nearest rank of percentile `p` among `n` samples: ⌈p·n/100⌉. */
  def rank(n: Int, p: Int): Int = math.max(1, (p * n + 99) / 100)

  /** Samples ranked above percentile `p` of `n` samples. */
  def beyond(n: Int, p: Int): Int = n - rank(n, p)

  def percentile(xs: Seq[Double], p: Int): Double = {
    require(p >= 1 && p <= 100, s"percentile $p")
    require(xs.nonEmpty, "percentile of no samples")
    xs.sorted.apply(rank(xs.length, p) - 1)
  }

  /** Events per second over a busy time given in nanoseconds. */
  def perSecond(events: Double, nanos: Long): Double = {
    require(nanos > 0, "rate over an empty interval")
    events * 1e9 / nanos
  }
}
