package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Pivot selection, pivot representation, and the Fine-grained Jaccard
  * Distance (§4.3).
  *
  * The exact pairwise referential-compression benefit is too expensive to
  * evaluate for every instance pair, so instances are represented against a
  * few *pivots* with `(S, L)` factors [Fresco-style], and the similarity of
  * two instances is estimated from the interval overlap of their factor
  * lists (Eq. 1–2).
  */
object Pivots {

  /** Com_E(instance, pivot): greedy `(S, L)` factorization, one factor per
    * index. `lens(k) == 0` marks an omitted factor: an outgoing edge number
    * that does not occur in the pivot. The paper omits it but still counts
    * it in `h`.
    */
  final class PivotCom(val starts: Array[Int], val lens: Array[Int]) {
    def h: Int = starts.length

    /** The factors as `Some((s, l))`, or None where omitted. */
    def factors: IndexedSeq[Option[(Int, Int)]] =
      starts.indices.map(k => if (lens(k) == 0) None else Some((starts(k), lens(k))))
  }

  /** Greedy `(S, L)` parse of `target` against `pivot` (§4.3 step iii). */
  def represent(pivot: Array[Int], target: Array[Int]): PivotCom = {
    val starts, lens = new Array[Int](target.length) // at most one factor per entry
    var h = 0
    var i = 0
    while (i < target.length) {
      val (s, l) = RefFactors.longestMatch(pivot, target, i)
      if (l == 0) i += 1 // omitted: start 0, length 0
      else { starts(h) = s; lens(h) = l; i += l }
      h += 1
    }
    new PivotCom(java.util.Arrays.copyOf(starts, h), java.util.Arrays.copyOf(lens, h))
  }

  /** Select `np` pivots from the instances' edge sequences and return
    * (pivot indices, Com_E of every instance w.r.t. every pivot).
    *
    * Procedure from §4.3: start from a random instance, repeatedly pick the
    * instance whose current representation has the most factors (farthest
    * from the latest pivot), then re-represent everything against it.
    */
  def selectPivots(
      edgeSeqs: Array[Array[Int]],
      np: Int,
      rnd: Random,
  ): (IndexedSeq[Int], IndexedSeq[Array[PivotCom]]) = {
    val n = edgeSeqs.length
    val want = math.min(np, n)
    val pivots = ArrayBuffer[Int]()
    val comsPerPivot = ArrayBuffer[Array[PivotCom]]()

    var current: Array[PivotCom] =
      representAll(edgeSeqs, rnd.nextInt(n))

    while (pivots.length < want) {
      var best = -1
      var bestH = -1
      var w = 0
      while (w < n) {
        if (!pivots.contains(w) && current(w).h > bestH) { bestH = current(w).h; best = w }
        w += 1
      }
      pivots += best
      val coms = representAll(edgeSeqs, best)
      comsPerPivot += coms
      current = coms
    }
    (pivots.toVector, comsPerPivot.toVector)
  }

  private def representAll(edgeSeqs: Array[Array[Int]], pivotIdx: Int): Array[PivotCom] =
    edgeSeqs.map(e => represent(edgeSeqs(pivotIdx), e))

  /** Interval overlap |[s1, s1+l1) ∩ [s2, s2+l2)| of two match factors. */
  private def overlap(s1: Int, l1: Int, s2: Int, l2: Int): Int =
    math.max(math.min(s1 + l1, s2 + l2) - math.max(s1, s2), 0)

  /** Eq. 2: similarity of one factor of Com(v) against the whole Com(w).
    * `L_max` is the length of the w-factor achieving the maximum overlap
    * (minimum length among ties, per the paper).
    */
  def factorSim(vFactor: (Int, Int), wCom: PivotCom): Double = factorSim(vFactor._1, vFactor._2, wCom)

  private def factorSim(vs: Int, vl: Int, wCom: PivotCom): Double = {
    val ws = wCom.starts
    val wl = wCom.lens
    var bestOverlap = 0
    var lMax = Int.MaxValue
    var k = 0
    while (k < ws.length) {
      val o = overlap(ws(k), wl(k), vs, vl) // 0 for an omitted factor
      if (o > bestOverlap) { bestOverlap = o; lMax = wl(k) }
      else if (o == bestOverlap && o > 0 && wl(k) < lMax) lMax = wl(k)
      k += 1
    }
    if (bestOverlap == 0) 0.0
    else bestOverlap.toDouble / math.max(lMax, vl)
  }

  /** Eq. 1: FJD(Tuʲ_w → Tuʲ_v, piv) from their pivot representations. */
  def fjd(wCom: PivotCom, vCom: PivotCom): Double = {
    val h = wCom.h
    val hPrime = vCom.h
    if (math.max(h, hPrime) == 0) return 0.0
    var sum = 0.0
    var k = 0
    while (k < hPrime) {
      if (vCom.lens(k) > 0) sum += factorSim(vCom.starts(k), vCom.lens(k), wCom)
      k += 1
    }
    sum / math.max(h, hPrime)
  }

  /** Score matrix SM[w][v] = SF(Tuʲ_w, Tuʲ_v) (§4.3): probability of the
    * candidate reference times the best FJD over pivots, zero on the
    * diagonal and for pairs with different start vertices.
    */
  def scoreMatrix(
      probs: Array[Double],
      startVertices: Array[Int],
      comsPerPivot: IndexedSeq[Array[PivotCom]],
  ): Array[Array[Double]] = {
    val n = probs.length
    val sm = new Array[Array[Double]](n)
    var w = 0
    while (w < n) {
      val row = new Array[Double](n) // zero where not set below
      sm(w) = row
      var v = 0
      while (v < n) {
        if (w != v && startVertices(w) == startVertices(v)) {
          var best = 0.0
          var p = 0
          while (p < comsPerPivot.length) {
            val coms = comsPerPivot(p)
            val d = fjd(coms(w), coms(v))
            if (d > best) best = d
            p += 1
          }
          row(v) = probs(w) * best
        }
        v += 1
      }
      w += 1
    }
    sm
  }
}
