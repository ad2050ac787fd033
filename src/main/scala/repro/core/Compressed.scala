package repro.core

import repro.util.BitVec

/** Compression / indexing parameters (Table 7). */
final case class Params(
    numPivots: Int = 1,
    etaD: Double = 1.0 / 128,   // error bound of relative distance
    etaP: Double = 1.0 / 512,   // error bound of probability
    gridCells: Int = 32,        // grid is gridCells × gridCells
    slotMinutes: Int = 30,      // time partition duration
    seed: Long = 42L,
) {
  def slotSeconds: Int = slotMinutes * 60
}

/** Dataset-wide encoding constants derived from the road network and
  * profile: `symBits` = ⌈log2(o+1)⌉ where o is the max out-degree (an edge
  * code must also express the 0 repeat marker), `svBits` = vertex-id width,
  * `ts` = default sample interval, `t0Bits` = 17 per the paper (seconds of
  * day fit in 2^17).
  */
final case class DatasetMeta(
    symBits: Int,
    svBits: Int,
    ts: Int,
    etaD: Double,
    etaP: Double,
) {
  val t0Bits: Int = 17
  // Built once per meta, and not serialized: a stored row carries only η.
  @transient lazy val pddpD: Pddp = Pddp(etaD)
  @transient lazy val pddpP: Pddp = Pddp(etaP)
}

object DatasetMeta {
  def of(net: repro.network.RoadNetwork, ts: Int, p: Params): DatasetMeta =
    DatasetMeta(
      symBits = repro.util.Bits.widthFor(net.maxOutDegree + 1L),
      svBits = repro.util.Bits.widthFor(net.numVertices.toLong),
      ts = ts,
      etaD = p.etaD,
      etaP = p.etaP,
    )
}

/** Per-component bit counts; used for the Table 8 compression-ratio
  * accounting (T, E, D, T′, p) plus SV and structural overhead.
  */
final case class Sizes(t: Long, e: Long, d: Long, tf: Long, p: Long, sv: Long, overhead: Long) {
  def total: Long = t + e + d + tf + p + sv + overhead
  def +(o: Sizes): Sizes =
    Sizes(t + o.t, e + o.e, d + o.d, tf + o.tf, p + o.p, sv + o.sv, overhead + o.overhead)
}

object Sizes {
  val zero: Sizes = Sizes(0, 0, 0, 0, 0, 0, 0)

  /** Uncompressed-baseline bits of one uncertain trajectory: 32-bit
    * timestamps and edge entries, 64-bit doubles for distances and
    * probabilities, 1 bit per time-flag entry, 32-bit start vertex (the
    * arithmetic the paper itself uses, §4.4).
    */
  def original(traj: repro.traj.UTraj): Sizes = {
    var e = 0L; var d = 0L; var tf = 0L; var p = 0L; var sv = 0L
    traj.instances.foreach { in =>
      e += 32L * in.edges.length
      d += 64L * in.dists.length
      tf += in.tflags.length.toLong
      p += 64L
      sv += 32L
    }
    Sizes(t = 32L * traj.times.length, e = e, d = d, tf = tf, p = p, sv = sv, overhead = 0L)
  }
}

/** Where one reference instance's fixed-width SV, E, stored T′ and D start
  * inside the blob, and its decoded probability. Derived from the blob by
  * [[Decompressor.layout]] and never stored: the StIU keeps no offsets (the
  * paper's d.pos). The four fields follow one another, and
  * [[Decompressor.refInstance]] reads them in one pass from `svOff`.
  */
final case class RefLayout(
    origIdx: Int,   // instance index in the original trajectory
    eLen: Int,      // |E(Ref)|
    svOff: Int,
    eOff: Int,
    tfOff: Int,     // stored T′ (first/last bits omitted): eLen − 2 bits
    dOff: Int,
    prob: Double,   // quantized probability
)

/** Where one non-reference instance's factor lists start inside the blob,
  * and its decoded probability. Com_E, Com_T′ and Com_D follow one another
  * from `comEOff`, and [[Decompressor.nonRefInstance]] reads them in one
  * pass and rebuilds the instance against its decoded reference; it reads
  * none of the reference's bits.
  *
  * `comEFactorOffs`/`comEFactorSpans` locate each Com_E factor. No program
  * path reads them since non-references get no StIU tuples of their own
  * (see [[repro.index.StIU]]); they stay because the benchmark under
  * `utcqbench/` reads them, and go when it stops doing so.
  */
final case class NonRefLayout(
    origIdx: Int,
    refSlot: Int,        // index into the refs array
    comEOff: Int,        // Com_E, then Com_T′ and Com_D, in one run of bits
    prob: Double,
    comEFactorOffs: Array[Int], // bit offset of each Com_E factor
    comEFactorSpans: Array[Int], // start entry (in E(nonref)) of each factor
)

/** Where every component of a blob starts, and how many bits each
  * component takes: the result of one sequential parse of the
  * self-delimiting blob.
  */
final case class Layout(
    tOff: Int,                   // offset of t0
    deltaOffs: Array[Int],       // offset of each Δ code (length n−1)
    refs: Array[RefLayout],
    nonRefs: Array[NonRefLayout],
    sizes: Sizes,                // bits per component; total = blobBits
)

/** A compressed uncertain trajectory: one self-delimiting bit blob and the
  * [[DatasetMeta]] whose widths wrote it, so that a stored row decodes by
  * itself. Everything else (the layout and the per-component bit counts)
  * is derived from the blob on first use and is not serialized.
  */
final case class CompressedTraj(
    id: Long,
    n: Int, // number of samples
    blob: Array[Byte],
    blobBits: Int,
    meta: DatasetMeta,
) {
  @transient lazy val bits: BitVec = BitVec.fromBytes(blob, blobBits)
  @transient lazy val layout: Layout = Decompressor.layout(this)

  def tOff: Int = layout.tOff
  def deltaOffs: Array[Int] = layout.deltaOffs
  def refs: Array[RefLayout] = layout.refs
  def nonRefs: Array[NonRefLayout] = layout.nonRefs
  def sizes: Sizes = layout.sizes
  def numInstances: Int = refs.length + nonRefs.length

  /** Fails with an `IllegalArgumentException` naming the trajectory unless
    * `m` is the [[DatasetMeta]] that wrote the blob.
    */
  def requireMeta(m: DatasetMeta): Unit =
    if (m != meta) throw new IllegalArgumentException(s"trajectory $id: blob written with $meta, read with $m")
}
