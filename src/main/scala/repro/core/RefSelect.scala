package repro.core

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
  *
  * Each round needs the maximum surviving score, ties to the first entry a
  * row-major scan with a strict `>` finds. Instead of rescanning the matrix
  * every round, each row keeps its positive off-diagonal entries in a
  * max-heap by (score descending, column ascending). Columns only ever die
  * (they are never restored), so a heap whose top column is dead can drop
  * that entry for good, and the remaining top is the row's maximum
  * surviving entry. The round's maximum is the best top over the live
  * rows, ties to the lowest row: the same choice as the scan, in
  * O(N² log N) over all rounds instead of O(N³).
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
    val heaps = new Array[Array[Int]](n) // per row: its positive off-diagonal columns, as a heap
    val sizes = new Array[Int](n)
    var w = 0
    while (w < n) {
      val row = sm(w)
      val heap = new Array[Int](n)
      var size = 0
      var v = 0
      while (v < n) {
        if (v != w && row(v) > 0) { heap(size) = v; size += 1 }
        v += 1
      }
      var i = size / 2 - 1
      while (i >= 0) { siftDown(row, heap, size, i); i -= 1 }
      heaps(w) = heap
      sizes(w) = size
      w += 1
    }

    val rowDead = new Array[Boolean](n) // instance may no longer act as reference
    val colDead = new Array[Boolean](n) // instance may no longer become a non-reference
    val refOf = new Array[Int](n)
    val refs = new Array[Int](n)
    var numRefs = 0
    val picked = new Array[Int](n) // non-references in selection order
    var numPicked = 0

    var done = false
    while (!done && numRefs + numPicked < n) {
      // Maximum surviving off-diagonal score: the best live row top.
      var bw = -1
      var best = 0.0
      w = 0
      while (w < n) {
        if (!rowDead(w)) {
          val heap = heaps(w)
          while (sizes(w) > 0 && colDead(heap(0))) { // drop dead columns from the top
            sizes(w) -= 1
            heap(0) = heap(sizes(w))
            siftDown(sm(w), heap, sizes(w), 0)
          }
          if (sizes(w) > 0 && sm(w)(heap(0)) > best) { best = sm(w)(heap(0)); bw = w }
        }
        w += 1
      }
      if (bw < 0) done = true
      else {
        val bv = heaps(bw)(0)
        if (!colDead(bw)) { // bw becomes a reference: nothing may represent it (remove SM[·][w])
          refs(numRefs) = bw; numRefs += 1
          colDead(bw) = true
        }
        refOf(bv) = bw; picked(numPicked) = bv; numPicked += 1
        colDead(bv) = true // one reference per non-reference (remove SM[·][v])
        rowDead(bv) = true // single-order: v cannot represent others (remove SM[v][·])
      }
    }
    // No positive score survives: the instances that are neither references
    // nor non-references become references without an Rrs (lines 11–13).
    var i = 0
    while (i < n) {
      if (!colDead(i)) { refs(numRefs) = i; numRefs += 1 }
      i += 1
    }

    val members = picked.take(numPicked).toVector
    Assignment(refs.take(numRefs).toVector, members.groupBy(refOf(_)), members.map(v => v -> refOf(v)).toMap)
  }

  /** Restore the heap order of `heap(0 until size)` below `start`: a column
    * sits above its children when its score in `row` is larger, or equal
    * with a lower column.
    */
  private def siftDown(row: Array[Double], heap: Array[Int], size: Int, start: Int): Unit = {
    def above(a: Int, b: Int) = row(a) > row(b) || (row(a) == row(b) && a < b)
    val x = heap(start)
    var i = start
    var c = 2 * i + 1
    while (c < size) {
      if (c + 1 < size && above(heap(c + 1), heap(c))) c += 1
      if (above(heap(c), x)) { heap(i) = heap(c); i = c; c = 2 * i + 1 }
      else c = size
    }
    heap(i) = x
  }
}
