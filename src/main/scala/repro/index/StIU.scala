package repro.index

import repro.core._
import repro.network.RoadNetwork
import repro.traj.{Instance, PathOps, UTraj}
import scala.collection.mutable

/** The Spatio-temporal Information based Uncertain Trajectory Index
  * (StIU, §5.2), built *during compression* from the still-available
  * uncompressed geometry plus the compressed blob's bit offsets.
  *
  * Temporal part: for each time-partition slot an uncertain trajectory
  * touches, a tuple (t.start, t.no, t.pos) — earliest timestamp in the
  * slot, its ordinal, and the bit offset of the next timestamp's Δ code in
  * T̂, where partial decoding can resume.
  *
  * Spatial part: for each grid cell a trajectory instance traverses, a
  * tuple that lets the query processor resume decoding at the cell
  * boundary: references carry (fv.id, fv.no, d.pos, p_total, p_max)
  * (fv.id = −1 encodes the paper's ∞ case: the reference itself misses the
  * cell but a non-reference of its set passes it); non-references carry
  * (rv.id, rv.no, ma.pos) pointing into their Com_E factor stream.
  */
object StIU {

  final case class TemporalEntry(trajId: Long, slot: Int, tStart: Int, tNo: Int, tPos: Int)

  final case class RefTuple(
      trajId: Long, cell: Int, refSlot: Int,
      fvId: Int, fvNo: Int, dPos: Int,
      pTotal: Double, pMax: Double)

  final case class NonRefTuple(
      trajId: Long, cell: Int, nonRefSlot: Int,
      rvId: Int, rvNo: Int, maPos: Int)

  final case class Index(
      grid: Grid,
      slotSeconds: Int,
      temporal: Map[Long, IndexedSeq[TemporalEntry]],         // per trajectory, slot-ordered
      bySlot: Map[Int, IndexedSeq[Long]],                     // slot -> trajIds
      refTuples: Map[(Long, Int), IndexedSeq[RefTuple]],      // (trajId, cell) -> tuples
      nonRefTuples: Map[(Long, Int), IndexedSeq[NonRefTuple]],
  ) {
    /** Index size in bits under fixed-width fields (for the Fig. 9 index
      * size metric): temporal = id 32 + slot 16 + t.start 17 + t.no 12 +
      * t.pos 32; ref tuple = id 32 + cell 16 + slot 8 + fv.id 32 + fv.no 16
      * + d.pos 32 + 2 probabilities à 16; non-ref tuple = id 32 + cell 16 +
      * slot 8 + rv.id 32 + rv.no 16 + ma.pos 32.
      */
    def sizeBits: Long = {
      val t = temporal.valuesIterator.map(_.size).sum.toLong * (32 + 16 + 17 + 12 + 32)
      val r = refTuples.valuesIterator.map(_.size).sum.toLong * (32 + 16 + 8 + 32 + 16 + 32 + 32)
      val nr = nonRefTuples.valuesIterator.map(_.size).sum.toLong * (32 + 16 + 8 + 32 + 16 + 32)
      t + r + nr
    }
  }

  /** Cells visited by an instance path, with the entering path-edge
    * ordinal of the first arrival: the start vertex's cell, then every cell
    * an edge segment touches ([[Grid.cellsAlong]]), in path order.
    * Returns (cell -> entering path-edge ordinal, or −1 for the start cell)
    * in arrival order.
    */
  def cellArrivals(net: RoadNetwork, grid: Grid, inst: Instance): IndexedSeq[(Int, Int)] = {
    val es = PathOps.pathEdges(net, inst)
    val out = mutable.LinkedHashMap[Int, Int]()
    out(grid.cellOf(net.xs(inst.sv), net.ys(inst.sv))) = -1
    var j = 0
    while (j < es.length) {
      val e = es(j)
      grid.cellsAlong(net.xs(e.from), net.ys(e.from), net.xs(e.to), net.ys(e.to))
        .foreach(c => if (!out.contains(c)) out(c) = j)
      j += 1
    }
    out.toVector
  }

  /** E-entry index of each path edge (skipping the 0 repeat markers). */
  def entryIndexOfEdge(inst: Instance): Array[Int] = {
    val out = Array.newBuilder[Int]
    var i = 0
    while (i < inst.edges.length) {
      if (inst.edges(i) != 0) out += i
      i += 1
    }
    out.result()
  }

  /** Build the index entries of one compressed trajectory. */
  def buildFor(
      net: RoadNetwork,
      grid: Grid,
      meta: DatasetMeta,
      params: Params,
      traj: UTraj,
      ct: CompressedTraj,
  ): (IndexedSeq[TemporalEntry], IndexedSeq[RefTuple], IndexedSeq[NonRefTuple]) = {

    // ---- temporal entries ----------------------------------------------
    val slotSec = params.slotSeconds
    val temporal = mutable.ArrayBuffer[TemporalEntry]()
    var lastSlot = -1
    var i = 0
    while (i < traj.times.length) {
      val slot = traj.times(i) / slotSec
      if (slot != lastSlot) {
        val tPos = if (i < ct.n - 1) ct.deltaOffs(i) else -1
        temporal += TemporalEntry(traj.id, slot, traj.times(i), i, tPos)
        lastSlot = slot
      }
      i += 1
    }

    // ---- spatial tuples ------------------------------------------------
    val pddpP = meta.pddpP
    val refTuples = mutable.ArrayBuffer[RefTuple]()
    val nonRefTuples = mutable.ArrayBuffer[NonRefTuple]()

    // Per-instance visited cells and entry metadata.
    val refArr = ct.refs
    val nonRefArr = ct.nonRefs

    // group = reference slot; members: (instance, isRef, slotIdx)
    val groupMembers: Map[Int, Seq[(Int, Boolean)]] = {
      val m = mutable.Map[Int, mutable.ArrayBuffer[(Int, Boolean)]]()
      refArr.indices.foreach(s => m.getOrElseUpdate(s, mutable.ArrayBuffer()) += ((s, true)))
      nonRefArr.indices.foreach { k => m.getOrElseUpdate(nonRefArr(k).refSlot, mutable.ArrayBuffer()) += ((k, false)) }
      m.view.mapValues(_.toSeq).toMap
    }

    val cellsOfRef = mutable.Map[Int, IndexedSeq[(Int, Int)]]()
    val cellsOfNonRef = mutable.Map[Int, IndexedSeq[(Int, Int)]]()
    refArr.indices.foreach { s =>
      cellsOfRef(s) = cellArrivals(net, grid, traj.instances(refArr(s).origIdx))
    }
    nonRefArr.indices.foreach { k =>
      cellsOfNonRef(k) = cellArrivals(net, grid, traj.instances(nonRefArr(k).origIdx))
    }

    groupMembers.foreach { case (refSlot, members) =>
      val rl = refArr(refSlot)
      val refInst = traj.instances(rl.origIdx)
      val refCellsArr = cellsOfRef(refSlot)
      val refCellSet = refCellsArr.map(_._1).toSet

      // Quantized probabilities (the compressed side only knows these).
      def probOf(idx: Int, isRef: Boolean): Double =
        if (isRef) refArr(idx).prob else nonRefArr(idx).prob

      // Which cells does each member visit?
      val memberCells: Seq[(Int, Boolean, Set[Int])] = members.map { case (idx, isRef) =>
        val cs = (if (isRef) cellsOfRef(idx) else cellsOfNonRef(idx)).map(_._1).toSet
        (idx, isRef, cs)
      }
      val allCells = memberCells.flatMap(_._3).toSet

      // ω and entry mapping of the reference for d.no = γ[fv.no].
      val storedRef = Compressor.storedTf(refInst.tflags)
      val omega = Decompressor.flagArray(storedRef)
      val entryOfEdge = entryIndexOfEdge(refInst)
      val refVerts = PathOps.pathVertices(net, refInst)

      allCells.foreach { cell =>
        val overlapping = memberCells.filter(_._3.contains(cell))
        val pTotal = overlapping.map { case (idx, isRef, _) => probOf(idx, isRef) }.sum
        val nonRefsHere = overlapping.filter(!_._2)
        val pMax = if (nonRefsHere.isEmpty) 0.0 else nonRefsHere.map { case (idx, _, _) => nonRefArr(idx).prob }.max

        if (refCellSet.contains(cell)) {
          val enteringEdge = refCellsArr.find(_._1 == cell).get._2
          if (enteringEdge < 0)
            // Start cell: the paper stores (SV, 0, 0).
            refTuples += RefTuple(traj.id, cell, refSlot, refInst.sv, 0, rl.dOff, pTotal, pMax)
          else {
            val fv = refVerts(enteringEdge) // from-vertex of the entering edge
            val fvNo = entryOfEdge(enteringEdge)
            val dNo = Decompressor.gammaRef(storedRef, refInst.edges.length, omega, fvNo)
            val dPos = rl.dOff + math.min(dNo, ct.n - 1) * meta.pddpD.bits
            refTuples += RefTuple(traj.id, cell, refSlot, fv, fvNo, dPos, pTotal, pMax)
          }
        } else {
          // The ∞ case: reference misses the cell, some non-reference hits it.
          refTuples += RefTuple(traj.id, cell, refSlot, -1, -1, -1, pTotal, pMax)
        }
      }

      // Non-reference tuples: one per Com_E factor, for the first cell that
      // factor's span reaches (the paper's crossing rule).
      nonRefsHere(members).foreach { k =>
        val nl = nonRefArr(k)
        val inst = traj.instances(nl.origIdx)
        val verts = PathOps.pathVertices(net, inst)
        val entryOf = entryIndexOfEdge(inst)
        val spans = nl.comEFactorSpans
        val usedFactors = mutable.Set[Int]()
        cellsOfNonRef(k).foreach { case (cell, enteringEdge) =>
          if (enteringEdge < 0) {
            nonRefTuples += NonRefTuple(traj.id, cell, k, inst.sv, 0, 0)
          } else {
            val entryIdx = entryOf(enteringEdge)
            // factor containing this entry
            val h =
              if (spans.isEmpty) 0
              else {
                var lo = 0
                while (lo < spans.length - 1 && spans(lo + 1) <= entryIdx) lo += 1
                lo
              }
            if (!usedFactors.contains(h)) {
              usedFactors += h
              val rvEntry = if (spans.isEmpty) 0 else spans(h)
              // from-vertex of the edge owning the factor's first entry
              val owning = owningEdgeOrdinal(inst, rvEntry)
              val rv = verts(owning)
              val maPos = if (nl.comEFactorOffs.isEmpty) nl.comEOff else nl.comEFactorOffs(h)
              nonRefTuples += NonRefTuple(traj.id, cell, k, rv, rvEntry, maPos)
            }
          }
        }
      }
    }

    (temporal.toVector, refTuples.toVector, nonRefTuples.toVector)
  }

  private def nonRefsHere(members: Seq[(Int, Boolean)]): Seq[Int] =
    members.collect { case (idx, false) => idx }

  /** Ordinal of the path edge owning E entry `entryIdx` (0 entries belong
    * to the preceding edge).
    */
  def owningEdgeOrdinal(inst: Instance, entryIdx: Int): Int = {
    var cnt = 0
    var i = 0
    while (i <= entryIdx) {
      if (inst.edges(i) != 0) cnt += 1
      i += 1
    }
    math.max(0, cnt - 1)
  }

  /** Assemble the full index from per-trajectory pieces. */
  def assemble(
      grid: Grid,
      slotSeconds: Int,
      parts: Seq[(IndexedSeq[TemporalEntry], IndexedSeq[RefTuple], IndexedSeq[NonRefTuple])],
  ): Index = {
    val temporal = parts.flatMap(_._1)
    val refT = parts.flatMap(_._2)
    val nonRefT = parts.flatMap(_._3)
    Index(
      grid,
      slotSeconds,
      temporal.groupBy(_.trajId).view.mapValues(_.sortBy(_.slot).toVector).toMap,
      temporal.groupBy(_.slot).view.mapValues(_.map(_.trajId).distinct.toVector).toMap,
      refT.groupBy(t => (t.trajId, t.cell)).view.mapValues(_.toVector).toMap,
      nonRefT.groupBy(t => (t.trajId, t.cell)).view.mapValues(_.toVector).toMap,
    )
  }
}
