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
  * Spatial part: for each grid cell a reference group (a reference and the
  * non-references encoded against it) traverses, one reference tuple
  * (fv.id, fv.no, d.pos, p_total, p_max). fv.id = −1 encodes the paper's ∞
  * case: the reference itself misses the cell but a non-reference of its
  * group passes it.
  *
  * Deviation from §5.2: non-references get no (rv.id, rv.no, ma.pos)
  * tuples of their own. The query processor decodes whole instances and
  * reaches a non-reference only through its group's reference tuples
  * (p_total, p_max and the ∞ tuples), so such tuples would have no reader.
  */
object StIU {

  final case class TemporalEntry(trajId: Long, slot: Int, tStart: Int, tNo: Int, tPos: Int)

  final case class RefTuple(
      trajId: Long, cell: Int, refSlot: Int,
      fvId: Int, fvNo: Int, dPos: Int,
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
      bySlot: Map[Int, IndexedSeq[Long]],                     // slot -> trajIds
      refTuples: Map[(Long, Int), IndexedSeq[RefTuple]],      // (trajId, cell) -> tuples
  ) {
    /** Index size in bits under fixed-width fields (for the Fig. 9 index
      * size metric): temporal = id 32 + slot 16 + t.start 17 + t.no 12 +
      * t.pos 32; ref tuple = id 32 + cell 16 + slot 8 + fv.id 32 + fv.no 16
      * + d.pos 32 + 2 probabilities à 16. There are no non-reference tuples
      * to count.
      */
    def sizeBits: Long = {
      val t = temporal.valuesIterator.map(_.size).sum.toLong * (32 + 16 + 17 + 12 + 32)
      val r = refTuples.valuesIterator.map(_.size).sum.toLong * (32 + 16 + 8 + 32 + 16 + 32 + 32)
      t + r
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

  /** Build the index entries of one compressed trajectory: its temporal
    * entries, its reference tuples, and an always-empty third slot (see
    * [[NonRefTuple]]).
    */
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
    // Per reference group (a reference and the non-references encoded
    // against it), one tuple for each cell a member visits. Probabilities
    // are the quantized ones, the only ones the compressed side knows.
    val refCells = ct.refs.map(rl => cellArrivals(net, grid, traj.instances(rl.origIdx)).toMap)
    val nonRefCells = ct.nonRefs.map(nl => cellArrivals(net, grid, traj.instances(nl.origIdx)).map(_._1).toSet)
    val refTuples = mutable.ArrayBuffer[RefTuple]()
    ct.refs.indices.foreach { refSlot =>
      val rl = ct.refs(refSlot)
      val refInst = traj.instances(rl.origIdx)
      val entering = refCells(refSlot) // cell -> entering path-edge ordinal
      val nonRefs = ct.nonRefs.indices.filter(ct.nonRefs(_).refSlot == refSlot)

      // ω and entry mapping of the reference for d.no = γ[fv.no].
      val storedRef = Compressor.storedTf(refInst.tflags)
      val omega = Decompressor.flagArray(storedRef)
      val entryOfEdge = entryIndexOfEdge(refInst)
      val refVerts = PathOps.pathVertices(net, refInst)

      (entering.keySet ++ nonRefs.flatMap(nonRefCells)).foreach { cell =>
        val nonRefProbs = nonRefs.filter(nonRefCells(_).contains(cell)).map(ct.nonRefs(_).prob)
        val pMax = if (nonRefProbs.isEmpty) 0.0 else nonRefProbs.max
        val pTotal = (if (entering.contains(cell)) rl.prob else 0.0) + nonRefProbs.sum
        refTuples += (entering.get(cell) match {
          // The ∞ case: reference misses the cell, some non-reference hits it.
          case None => RefTuple(traj.id, cell, refSlot, -1, -1, -1, pTotal, pMax)
          // Start cell: the paper stores (SV, 0, 0).
          case Some(-1) => RefTuple(traj.id, cell, refSlot, refInst.sv, 0, rl.dOff, pTotal, pMax)
          case Some(edge) =>
            val fv = refVerts(edge) // from-vertex of the entering edge
            val fvNo = entryOfEdge(edge)
            val dNo = Decompressor.gammaRef(storedRef, refInst.edges.length, omega, fvNo)
            val dPos = rl.dOff + math.min(dNo, ct.n - 1) * meta.pddpD.bits
            RefTuple(traj.id, cell, refSlot, fv, fvNo, dPos, pTotal, pMax)
        })
      }
    }

    (temporal.toVector, refTuples.toVector, Vector.empty)
  }

  /** Assemble the full index from per-trajectory pieces ([[buildFor]]'s
    * triples; the empty third slot is ignored).
    */
  def assemble(
      grid: Grid,
      slotSeconds: Int,
      parts: Seq[(IndexedSeq[TemporalEntry], IndexedSeq[RefTuple], IndexedSeq[NonRefTuple])],
  ): Index = {
    val temporal = parts.flatMap(_._1)
    val refT = parts.flatMap(_._2)
    Index(
      grid,
      slotSeconds,
      temporal.groupBy(_.trajId).view.mapValues(_.sortBy(_.slot).toVector).toMap,
      temporal.groupBy(_.slot).view.mapValues(_.map(_.trajId).distinct.toVector).toMap,
      refT.groupBy(t => (t.trajId, t.cell)).view.mapValues(_.toVector).toMap,
    )
  }
}
