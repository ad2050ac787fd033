package repro.core

import repro.traj.UTraj
import repro.util.{BitWriter, Bits}
import scala.util.Random

/** The UTCQ compressor (§4): improved TED representation → reference
  * selection → referential representation → binary encoding, for one
  * uncertain trajectory. Pure Scala; the Spark job maps it over partitioned
  * trajectory data.
  */
object Compressor {

  /** Time-flag helpers: the stored T′ drops the first and last bits (both
    * provably 1, §4.1).
    */
  def storedTf(full: Array[Boolean]): Array[Boolean] =
    if (full.length <= 2) Array.empty else full.slice(1, full.length - 1)

  def restoreTf(stored: Array[Boolean], eLen: Int): Array[Boolean] =
    if (eLen == 1) Array(true)
    else (true +: stored.toVector :+ true).toArray

  /** Width of the blob header's n, N and R fields. */
  val HeaderBits: Int = 16

  /** Fail with an `IllegalArgumentException` naming the trajectory and the
    * limit when `traj` is beyond what the blob format holds: n or N ≥
    * 2^[[HeaderBits]], t0 outside [0, 2^t0Bits), or a SIAR Δ outside
    * ±[[ExpGolomb.MaxAbs]]. [[compress]] checks this before any other work,
    * since the score matrix of N instances alone is N × N.
    */
  def requireEncodable(meta: DatasetMeta, traj: UTraj): Unit = {
    def fail(what: String): Nothing = throw new IllegalArgumentException(s"trajectory ${traj.id}: $what")
    val maxCount = (1 << HeaderBits) - 1
    if (traj.numSamples > maxCount) fail(s"${traj.numSamples} samples, at most $maxCount fit the header")
    if (traj.instances.length > maxCount) fail(s"${traj.instances.length} instances, at most $maxCount fit the header")
    val t0 = traj.times(0)
    if (t0 < 0 || t0 >= (1 << meta.t0Bits)) fail(s"t0 = $t0 outside [0, 2^${meta.t0Bits})")
    var i = 1
    while (i < traj.numSamples) {
      val delta = traj.times(i).toLong - traj.times(i - 1) - meta.ts
      if (math.abs(delta) > ExpGolomb.MaxAbs)
        fail(s"SIAR deviation $delta after sample ${i - 1} outside ±${ExpGolomb.MaxAbs}")
      i += 1
    }
  }

  final case class Result(
      ct: CompressedTraj,
      assignment: RefSelect.Assignment,
  )

  /** Compress one uncertain trajectory.
    *
    * The per-trajectory RNG (pivot selection picks a random seed instance)
    * is derived from (params.seed, traj.id) so results are deterministic and
    * partition-order independent under Spark.
    */
  def compress(meta: DatasetMeta, params: Params, traj: UTraj): Result = {
    requireEncodable(meta, traj)
    val insts = traj.instances
    val n = traj.numSamples
    insts.foreach { in =>
      require(in.tflags.head && in.tflags.last,
        "first/last edges of an instance must carry a mapped location (§4.1)")
    }
    val rnd = new Random(params.seed * 31 + traj.id)

    // ---- reference selection -------------------------------------------
    val edgeSeqs = insts.map(_.edges)
    val (_, comsPerPivot) = Pivots.selectPivots(edgeSeqs, params.numPivots, rnd)
    val sm = Pivots.scoreMatrix(insts.map(_.prob), insts.map(_.sv), comsPerPivot)
    val assignment = RefSelect.select(sm)

    // ---- binary encoding -----------------------------------------------
    val pddpD = meta.pddpD
    val pddpP = meta.pddpP
    val w = new BitWriter
    /** Bits that `write` appends to the blob. */
    def bitsOf(write: => Unit): Long = { val before = w.length; write; (w.length - before).toLong }
    var szT = 0L; var szE = 0L; var szD = 0L; var szTf = 0L; var szP = 0L
    var szSv = 0L; var szOv = 0L

    // header: n, N, R
    szOv += bitsOf {
      w.writeBits(n.toLong, HeaderBits)
      w.writeBits(insts.length.toLong, HeaderBits)
      w.writeBits(assignment.refs.length.toLong, HeaderBits)
    }

    // T̂(Tuʲ): SIAR + improved Exp-Golomb
    val (t0, deltas) = Siar.represent(traj.times, meta.ts)
    szT += bitsOf {
      w.writeBits(t0.toLong, meta.t0Bits)
      deltas.foreach(ExpGolomb.encode(_, w))
    }

    // references
    val refSlotOf = assignment.refs.zipWithIndex.toMap
    val dCodesOf: Array[Array[Long]] = insts.map(in => in.dists.map(pddpD.quantize))
    val origIdxBits = Bits.widthFor(insts.length.toLong) // N is in the header
    assignment.refs.foreach { origIdx =>
      val in = insts(origIdx)
      szOv += bitsOf(w.writeBits(origIdx.toLong, origIdxBits))
      szE += bitsOf(ExpGolomb.encodeUnsigned(in.edges.length, w))
      szSv += bitsOf(w.writeBits(in.sv.toLong, meta.svBits))
      szE += bitsOf(in.edges.foreach(no => w.writeBits(no.toLong, meta.symBits)))
      szTf += bitsOf(storedTf(in.tflags).foreach(w.writeBit))
      szD += bitsOf(dCodesOf(origIdx).foreach(c => w.writeBits(c, pddpD.bits)))
      szP += bitsOf(pddpP.encode(in.prob, w))
    }

    // non-references (in original-index order for determinism)
    val refSlotBits = Bits.widthFor(math.max(1, assignment.refs.length).toLong)
    insts.indices.filter(assignment.refOf.contains).foreach { origIdx =>
      val in = insts(origIdx)
      val refIdx = assignment.refOf(origIdx)
      val refInst = insts(refIdx)
      szOv += bitsOf {
        w.writeBits(origIdx.toLong, origIdxBits)
        w.writeBits(refSlotOf(refIdx).toLong, refSlotBits)
      }
      szP += bitsOf(pddpP.encode(in.prob, w))
      szE += bitsOf(RefFactors.encodeE(RefFactors.factorizeE(refInst.edges, in.edges),
        RefFactors.ELayout(refInst.edges.length, meta.symBits), w))
      szTf += bitsOf(RefFactors.encodeTf(RefFactors.factorizeTf(storedTf(refInst.tflags), storedTf(in.tflags)),
        RefFactors.TfLayout(math.max(0, refInst.edges.length - 2)), w))
      szD += bitsOf(RefFactors.encodeD(RefFactors.factorizeD(dCodesOf(refIdx), dCodesOf(origIdx)),
        RefFactors.DLayout(n, pddpD.bits), w))
    }

    val vec = w.toBitVec
    val sizes = Sizes(szT, szE, szD, szTf, szP, szSv, szOv)
    require(sizes.total == vec.length.toLong,
      s"size accounting mismatch: ${sizes.total} vs ${vec.length}")
    val ct = CompressedTraj(traj.id, n, vec.toBytes, vec.length, sizes, meta)
    Result(ct, assignment)
  }
}
