package repro.core

import scala.collection.mutable

/** Greedy reference selection (Algorithm 1, §4.3).
  *
  * Repeatedly takes the maximum surviving score SM[w][v] (the current best
  * "represent v by w" choice), makes w a reference and v a member of its
  * referential representation set, and removes the matrix entries that the
  * two constraints forbid: a non-reference has exactly one reference, and
  * only single-order representation is allowed (a non-reference can neither
  * be represented again nor represent others; a reference can no longer be
  * a non-reference). Instances left unassigned when the maximum drops to
  * zero become references without a representation set.
  */
object RefSelect {

  /** Result of reference selection over one uncertain trajectory.
    *
    * @param refs  instance indices chosen as references, in selection order
    * @param rrs   referential representation set per reference index
    *              (possibly empty for trailing "formal" references)
    * @param refOf reference index for every non-reference index
    */
  final case class Assignment(
      refs: IndexedSeq[Int],
      rrs: Map[Int, IndexedSeq[Int]],
      refOf: Map[Int, Int],
  )

  def select(sm: Array[Array[Double]]): Assignment = {
    val n = sm.length
    val rowActive = Array.fill(n)(true) // instance may act as reference
    val colActive = Array.fill(n)(true) // instance may become a non-reference
    val refs = mutable.ArrayBuffer[Int]()
    val refSet = mutable.Set[Int]()
    val rrs = mutable.Map[Int, mutable.ArrayBuffer[Int]]()
    val refOf = mutable.Map[Int, Int]()

    var done = false
    while (!done) {
      // Maximum surviving off-diagonal score.
      var bw = -1; var bv = -1; var best = 0.0
      var w = 0
      while (w < n) {
        if (rowActive(w)) {
          var v = 0
          while (v < n) {
            if (v != w && colActive(v) && sm(w)(v) > best) { best = sm(w)(v); bw = w; bv = v }
            v += 1
          }
        }
        w += 1
      }
      if (bw < 0) {
        // Max is 0: surviving "diagonal" instances (neither references nor
        // non-references yet) become references without an Rrs (lines 11–13).
        var i = 0
        while (i < n) {
          if (!refSet.contains(i) && !refOf.contains(i)) { refs += i; refSet += i }
          i += 1
        }
        done = true
      } else {
        if (!refSet.contains(bw)) {
          refs += bw; refSet += bw
          rrs(bw) = mutable.ArrayBuffer[Int]()
          colActive(bw) = false // nothing may represent a reference (remove SM[·][w])
        }
        rrs(bw) += bv
        refOf(bv) = bw
        colActive(bv) = false // one reference per non-reference (remove SM[·][v])
        rowActive(bv) = false // single-order: v cannot represent others (remove SM[v][·])
      }
    }
    Assignment(refs.toVector, rrs.map { case (k, v) => k -> v.toVector }.toMap, refOf.toMap)
  }
}
