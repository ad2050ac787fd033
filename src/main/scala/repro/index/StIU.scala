package repro.index

import repro.core._
import repro.network.RoadNetwork
import repro.traj.{Instance, PathOps, ResolvedPath, UTraj}
import scala.collection.mutable

/** The Spatio-temporal Information based Uncertain Trajectory Index
  * (StIU, §5.2), built *during compression* from the still-available
  * uncompressed geometry and the compressed blob's reference groups.
  *
  * Temporal part: for each time-partition slot that holds a sample of an
  * uncertain trajectory, a tuple (t.start, t.no) — earliest timestamp in
  * the slot and its ordinal; the slot is t.start / slotSeconds. Decoding T̂
  * from t.no on starts at the Δ offset the blob's own layout gives
  * ([[Decompressor.timesFrom]]).
  *
  * Spatial part: for each grid cell a reference group (a reference and the
  * non-references encoded against it) traverses, one reference tuple
  * (refHits, p_total, p_max). `refHits` is false in the paper's ∞ case:
  * the reference itself misses the cell but a non-reference of its group
  * passes it.
  *
  * Deviations from §5.2:
  *  - No bit offsets: the paper's t.pos and d.pos are not stored. Every
  *    read path takes its offsets from the blob's layout
  *    ([[CompressedTraj.layout]]), so only [[Compressor]] and
  *    [[Decompressor]] know the blob's bit layout.
  *  - No (fv.id, fv.no): they let a `when` query start decoding a
  *    reference's E at the entry that enters the cell. The query processor
  *    decodes whole instances, so of the pair it reads only whether fv.id
  *    is ∞, which `refHits` holds.
  *  - Non-references get no (rv.id, rv.no, ma.pos) tuples of their own.
  *    The query processor decodes whole instances and reaches a
  *    non-reference only through its group's reference tuples (p_total,
  *    p_max and the ∞ tuples), so such tuples would have no reader.
  */
object StIU {

  final case class TemporalEntry(trajId: Long, tStart: Int, tNo: Int)

  final case class RefTuple(
      trajId: Long, cell: Int, refSlot: Int,
      refHits: Boolean,
      pTotal: Double, pMax: Double)

  /** The §5.2 non-reference tuple. Nothing builds it: [[buildFor]]'s third
    * slot is always empty (see the deviation above). The class and that
    * slot stay only because the benchmark under `utcqbench/` compiles
    * against them; they go when the benchmark stops naming them.
    */
  final case class NonRefTuple(
      trajId: Long, cell: Int, nonRefSlot: Int,
      rvId: Int, rvNo: Int, maPos: Int)

  final case class Index(
      grid: Grid,
      slotSeconds: Int,
      temporal: Map[Long, IndexedSeq[TemporalEntry]],         // per trajectory, slot-ordered
      bySlot: Map[Int, IndexedSeq[Long]],                     // slot -> trajIds spanning it
      refTuples: Map[(Long, Int), IndexedSeq[RefTuple]],      // (trajId, cell) -> tuples
  ) {
    /** Index size in bits under fixed-width fields (for the Fig. 9 index
      * size metric): temporal = id 32 + t.start 17 + t.no; ref tuple = id
      * 32 + cell 16 + ref slot + the ∞ bit + 2 probabilities à 16. t.no < n
      * and the ref slot < R, so both take the blob header's
      * [[Compressor.HeaderBits]]. There are no non-reference tuples to
      * count.
      */
    def sizeBits: Long = {
      val t = temporal.valuesIterator.map(_.size).sum.toLong * (32 + 17 + Compressor.HeaderBits)
      val r = refTuples.valuesIterator.map(_.size).sum.toLong * (32 + 16 + Compressor.HeaderBits + 1 + 32)
      t + r
    }
  }

  /** Cells visited by an instance path, with the entering path-edge
    * ordinal of the first arrival: the start vertex's cell, then every cell
    * an edge segment touches ([[Grid.cellsAlong]]), in path order.
    * Returns (cell -> entering path-edge ordinal, or −1 for the start cell)
    * in arrival order. Nothing in the program reads the ordinal; the index
    * build and TED's cell lists take the cells only.
    */
  def cellArrivals(net: RoadNetwork, grid: Grid, inst: Instance): IndexedSeq[(Int, Int)] =
    cellArrivals(net, grid, PathOps.resolve(net, inst))

  /** [[cellArrivals]] of an already resolved path. */
  def cellArrivals(net: RoadNetwork, grid: Grid, path: ResolvedPath): IndexedSeq[(Int, Int)] = {
    val a = new Arrivals(net, grid).of(path)
    a.cells.indices.map(i => (a.cells(i), a.entering(i)))
  }

  /** Cell sets as bitsets over the grid's cells. */
  private def has(set: Array[Long], cell: Int): Boolean = (set(cell >>> 6) & (1L << cell)) != 0L
  private def add(set: Array[Long], cell: Int): Unit = set(cell >>> 6) |= 1L << cell

  /** `f` of every cell in `set`, in ascending order. */
  private def foreachCell(set: Array[Long])(f: Int => Unit): Unit = {
    var x = 0
    while (x < set.length) {
      var bits = set(x)
      while (bits != 0L) { f(x * 64 + java.lang.Long.numberOfTrailingZeros(bits)); bits &= bits - 1 }
      x += 1
    }
  }

  /** The cells of one path in arrival order, and the path-edge ordinal each
    * is first entered on (−1 for the start vertex's cell).
    */
  private final class CellPath(val cells: Array[Int], val entering: Array[Int])

  /** Computes [[cellArrivals]] for the paths of one trajectory. It keeps
    * [[Grid.cellsAlong]] of every edge it has seen, since the instances of
    * a trajectory share most of their edges, and one seen-set bitset over
    * the grid's cells, cleared after each path.
    */
  private final class Arrivals(net: RoadNetwork, grid: Grid) {
    private val along = mutable.LongMap.empty[Array[Int]] // (from, to) -> cells the edge touches
    private val seen = new Array[Long]((grid.numCells + 63) >>> 6)

    def of(path: ResolvedPath): CellPath = {
      val cells, entering = mutable.ArrayBuilder.make[Int]
      def visit(c: Int, j: Int): Unit =
        if (!has(seen, c)) { add(seen, c); cells += c; entering += j }
      val sv = path.inst.sv
      visit(grid.cellOf(net.xs(sv), net.ys(sv)), -1)
      val es = path.edges
      var j = 0
      while (j < es.length) {
        val e = es(j)
        val cs = along.getOrElseUpdate((e.from.toLong << 32) | e.to,
          grid.cellsAlong(net.xs(e.from), net.ys(e.from), net.xs(e.to), net.ys(e.to)))
        var k = 0
        while (k < cs.length) { visit(cs(k), j); k += 1 }
        j += 1
      }
      val out = new CellPath(cells.result(), entering.result())
      out.cells.foreach(c => seen(c >>> 6) = 0L)
      out
    }
  }

  /** Build the index entries of one compressed trajectory: its temporal
    * entries, its reference tuples, and an always-empty third slot (see
    * [[NonRefTuple]]). `meta` must be the one that wrote `ct` (`ct.meta`).
    * A reference group's tuples come in ascending cell order.
    */
  def buildFor(
      net: RoadNetwork,
      grid: Grid,
      meta: DatasetMeta,
      params: Params,
      traj: UTraj,
      ct: CompressedTraj,
  ): (IndexedSeq[TemporalEntry], IndexedSeq[RefTuple], IndexedSeq[NonRefTuple]) = {
    ct.requireMeta(meta)

    // ---- temporal entries ----------------------------------------------
    val slotSec = params.slotSeconds
    val temporal = mutable.ArrayBuffer[TemporalEntry]()
    var lastSlot = -1
    var i = 0
    while (i < traj.times.length) {
      val slot = traj.times(i) / slotSec
      if (slot != lastSlot) {
        temporal += TemporalEntry(traj.id, traj.times(i), i)
        lastSlot = slot
      }
      i += 1
    }

    // ---- spatial tuples ------------------------------------------------
    // Per reference group (a reference and the non-references encoded
    // against it), one tuple for each cell a member visits. Probabilities
    // are the quantized ones, the only ones the compressed side knows.
    val arrivals = new Arrivals(net, grid)
    val words = (grid.numCells + 63) >>> 6
    def cellsOf(origIdx: Int): Array[Int] = arrivals.of(PathOps.resolve(net, traj.instances(origIdx))).cells
    val nonRefCells = ct.nonRefs.map { nl =>
      val set = new Array[Long](words)
      cellsOf(nl.origIdx).foreach(add(set, _))
      set
    }
    val refTuples = mutable.ArrayBuffer[RefTuple]()
    val refCells, groupCells = new Array[Long](words)
    ct.refs.indices.foreach { refSlot =>
      val rl = ct.refs(refSlot)
      val nonRefs = ct.nonRefs.indices.filter(ct.nonRefs(_).refSlot == refSlot).toArray

      java.util.Arrays.fill(refCells, 0L)
      cellsOf(rl.origIdx).foreach(add(refCells, _))
      System.arraycopy(refCells, 0, groupCells, 0, words)
      nonRefs.foreach(k => (0 until words).foreach(x => groupCells(x) |= nonRefCells(k)(x)))

      foreachCell(groupCells) { cell =>
        var pMax, pSum = 0.0
        nonRefs.foreach { k =>
          if (has(nonRefCells(k), cell)) {
            val p = ct.nonRefs(k).prob
            pSum += p
            if (p > pMax) pMax = p
          }
        }
        val refHits = has(refCells, cell)
        val pTotal = (if (refHits) rl.prob else 0.0) + pSum
        refTuples += RefTuple(traj.id, cell, refSlot, refHits, pTotal, pMax)
      }
    }

    (temporal.toVector, refTuples.toVector, Vector.empty)
  }

  /** Assemble the full index from per-trajectory pieces ([[buildFor]]'s
    * triples, one per trajectory; the empty third slot is ignored). `bySlot`
    * lists a trajectory in every slot from its first temporal entry's to its
    * last, also in a slot a sampling gap leaves without an entry: a range
    * query at a time inside the gap still interpolates between the
    * bracketing samples.
    */
  def assemble(
      grid: Grid,
      slotSeconds: Int,
      parts: Seq[(IndexedSeq[TemporalEntry], IndexedSeq[RefTuple], IndexedSeq[NonRefTuple])],
  ): Index = {
    val temporal = Map.newBuilder[Long, IndexedSeq[TemporalEntry]]
    val bySlot = mutable.LongMap.empty[mutable.ArrayBuffer[Long]]
    val refTuples = Map.newBuilder[(Long, Int), IndexedSeq[RefTuple]]
    parts.foreach { case (entries, tuples, _) =>
      if (entries.nonEmpty) {
        val id = entries.head.trajId
        val bySlotOrder = entries.sortBy(_.tStart).toVector
        temporal += id -> bySlotOrder
        (bySlotOrder.head.tStart / slotSeconds to bySlotOrder.last.tStart / slotSeconds).foreach { s =>
          bySlot.getOrElseUpdate(s.toLong, mutable.ArrayBuffer[Long]()) += id
        }
      }
      tuples.groupBy(_.cell).foreach { case (cell, ts) => refTuples += (ts.head.trajId, cell) -> ts.toVector }
    }
    Index(
      grid,
      slotSeconds,
      temporal.result(),
      bySlot.iterator.map { case (s, ids) => s.toInt -> ids.toVector }.toMap,
      refTuples.result(),
    )
  }
}
