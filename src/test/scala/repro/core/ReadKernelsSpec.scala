package repro.core

import repro.SparkSpec
import repro.core.GroundTruth.Rect
import repro.core.RefFactors._
import repro.index.{Grid, StIU}
import repro.network.{Edge, RoadNetwork, RoadNetworkGen}
import repro.traj.{Instance, PathOps, UncertainTrajGen}
import repro.util.{BitReader, BitWriter}
import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import scala.collection.mutable

/** Differential tests of the read-path kernels — the factor decoders and
  * reconstructions, the instance decoders, the path walk, Lemma 4's upper
  * bound and `when`'s tuple lookup — against [[ReadReferenceKernels]], the
  * earlier implementations kept as references. Every output must be
  * identical: factor lists, arrays and tuple lists by `==`, sums and
  * distances bit for bit.
  */
class ReadKernelsSpec extends SparkSpec {
  import ReadReferenceKernels._

  private def check(seed: Long, tests: Int)(prop: Prop): Unit = {
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(Seed(seed)), prop)
    assert(res.passed, res)
  }

  private def sameBits(a: Double, b: Double) =
    java.lang.Double.doubleToRawLongBits(a) == java.lang.Double.doubleToRawLongBits(b)

  /** Both decoders on one stream: equal results, and both readers end at
    * the same bit.
    */
  private def sameDecode[A](bits: BitWriter)(now: BitReader => A, was: BitReader => A): Boolean = {
    val (r1, r2) = (new BitReader(bits.toBitVec), new BitReader(bits.toBitVec))
    now(r1) == was(r2) && r1.pos == r2.pos
  }

  test("Com_E decoding and reconstruction equal the Range.map/ArrayBuffer reference") {
    // Targets: copies (the empty list), prefixes (a terminal (S, L)), and
    // random or edited sequences over a wider alphabet (case B's (S, M)).
    val pair = for {
      ref <- Gen.choose(1, 30).flatMap(Gen.listOfN(_, Gen.choose(1, 4))).map(_.toArray)
      kind <- Gen.choose(0, 3)
      target <- kind match {
        case 0 => Gen.const(ref.clone())
        case 1 => Gen.choose(1, ref.length).map(ref.take)
        case 2 => Gen.choose(1, 30).flatMap(Gen.listOfN(_, Gen.choose(1, 7))).map(_.toArray)
        case _ => Gen.choose(0, ref.length - 1).flatMap(i => Gen.choose(1, 7).map(ref.updated(i, _) ++ ref.take(i)))
      }
    } yield (ref, target)
    var kinds = Set.empty[String]
    check(1501L, 1000)(Prop.forAll(pair) { case (ref, target) =>
      val fs = factorizeE(ref, target)
      kinds ++= (if (fs.isEmpty) Seq("empty") else fs.map(_.getClass.getSimpleName))
      val lay = ELayout(ref.length, 3)
      val w = new BitWriter
      encodeE(fs, lay, w)
      val (offs, refOffs) = (mutable.ArrayBuffer[Int](), mutable.ArrayBuffer[Int]())
      sameDecode(w)(RefFactors.decodeE(lay, _, offs += _), decodeE(lay, _, refOffs += _)) && offs == refOffs &&
        RefFactors.reconstructE(ref, fs).sameElements(reconstructE(ref, fs))
    })
    assert(kinds == Set("empty", "Slm", "Sl", "Sm"), kinds)
  }

  test("Com_T′ decoding and reconstruction equal the Range.map/ArrayBuffer reference") {
    // Implicit and explicit mode (constant references), the zero-length
    // terminal factor of an empty target, and the empty list of a copy.
    val pair = for {
      refLen <- Gen.choose(0, 24)
      refKind <- Gen.choose(0, 2)
      ref <- refKind match {
        case 0 => Gen.listOfN(refLen, Gen.oneOf(true, false)).map(_.toArray)
        case k => Gen.const(Array.fill(refLen)(k == 1))
      }
      kind <- Gen.choose(0, 3)
      target <- kind match {
        case 0 => Gen.const(Array.empty[Boolean])
        case 1 => Gen.const(ref.clone())
        case 2 if ref.nonEmpty => Gen.choose(0, ref.length - 1).map(i => ref.updated(i, !ref(i)))
        case _ => Gen.choose(1, 24).flatMap(Gen.listOfN(_, Gen.oneOf(true, false))).map(_.toArray)
      }
    } yield (ref, target)
    var shapes = Set.empty[String]
    check(1502L, 2000)(Prop.forAll(pair) { case (ref, target) =>
      val com = factorizeTf(ref, target)
      shapes += (if (com.factors.isEmpty) "empty" else if (com.factors == Seq(TfFactor(0, 0, None))) "zero-length"
        else if (com.explicitMode) "explicit" else "implicit")
      val lay = TfLayout(ref.length)
      val w = new BitWriter
      encodeTf(com, lay, w)
      sameDecode(w)(RefFactors.decodeTf(lay, _), decodeTf(lay, _)) &&
        RefFactors.reconstructTf(ref, com).sameElements(reconstructTf(ref, com))
    })
    assert(shapes == Set("empty", "zero-length", "explicit", "implicit"), shapes)
    // An explicit-mode non-terminal factor without M fails in both.
    val bad = TfCom(Vector(TfFactor(0, 1, None), TfFactor(0, 1, None)), explicitMode = true)
    intercept[IllegalStateException](RefFactors.reconstructTf(Array(true, false), bad))
    intercept[IllegalStateException](reconstructTf(Array(true, false), bad))
  }

  test("Com_D decoding equals the Range.map reference") {
    val pair = for {
      n <- Gen.choose(1, 40)
      ref <- Gen.listOfN(n, Gen.choose(0L, 127L)).map(_.toArray)
      edits <- Gen.listOf(Gen.zip(Gen.choose(0, n - 1), Gen.choose(0L, 127L)))
    } yield (ref, edits.foldLeft(ref.clone()) { case (t, (i, c)) => t(i) = c; t })
    check(1503L, 500)(Prop.forAll(pair) { case (ref, target) =>
      val lay = DLayout(ref.length, 7)
      val w = new BitWriter
      encodeD(factorizeD(ref, target), lay, w)
      sameDecode(w)(RefFactors.decodeD(lay, _), decodeD(lay, _))
    })
  }

  private val params16 = Params(numPivots = 1, gridCells = 16)
  private val params32 = Params(numPivots = 1, gridCells = 32)
  private lazy val datasets = Seq(
    (RoadNetworkGen.DK, UncertainTrajGen.DK),
    (RoadNetworkGen.CD, UncertainTrajGen.CD),
    (RoadNetworkGen.HZ, UncertainTrajGen.HZ),
  ).map { case (np, tp) =>
    val net = RoadNetworkGen.generate(np)
    val trajs = UncertainTrajGen.dataset(net, tp, 40)
    val meta = DatasetMeta.of(net, tp.defaultInterval, params32)
    (tp.name, net, trajs, meta, trajs.map(t => Compressor.compress(meta, params32, t).ct))
  }

  test("every non-reference of DK, CD and HZ blobs decodes as with the reference decoders") {
    for ((name, _, _, meta, cts) <- datasets; ct <- cts; nl <- ct.nonRefs) {
      val refLen = ct.refs(nl.refSlot).eLen
      def read(r: BitReader, e: BitReader => Any, tf: BitReader => Any, d: BitReader => Any) = (e(r), tf(r), d(r), r.pos)
      val (eLay, tfLay, dLay) = (ELayout(refLen, meta.symBits), TfLayout(math.max(0, refLen - 2)), DLayout(ct.n, meta.pddpD.bits))
      assert(read(new BitReader(ct.bits, nl.comEOff),
          RefFactors.decodeE(eLay, _), RefFactors.decodeTf(tfLay, _), RefFactors.decodeD(dLay, _)) ==
        read(new BitReader(ct.bits, nl.comEOff), decodeE(eLay, _), decodeTf(tfLay, _), decodeD(dLay, _)),
        s"$name trajectory ${ct.id}")
    }
  }

  private def contents(in: Instance) =
    (in.prob, in.sv, in.edges.toSeq, in.tflags.toSeq, in.dists.toSeq.map(java.lang.Double.doubleToRawLongBits))

  test("every instance of DK, CD and HZ blobs decodes against its decoded reference as with the single-field readers") {
    for ((name, _, _, meta, cts) <- datasets; ct <- cts) {
      val refs = ct.refs.indices.map(Decompressor.refInstance(ct, _))
      refs.indices.foreach { s =>
        assert(contents(refs(s)) == contents(refInstance(ct, s)), s"$name trajectory ${ct.id} reference $s")
      }
      ct.nonRefs.indices.foreach { k =>
        assert(contents(Decompressor.nonRefInstance(ct, k, refs(ct.nonRefs(k).refSlot))) == contents(nonRefInstance(ct, k)),
          s"$name trajectory ${ct.id} non-reference $k")
      }
      // Full decompression equals decoding every instance by itself.
      val one = ct.refs.indices.map(s => ct.refs(s).origIdx -> refInstance(ct, s)) ++
        ct.nonRefs.indices.map(k => ct.nonRefs(k).origIdx -> nonRefInstance(ct, k))
      val dec = Decompressor.decompress(meta, ct)
      assert(dec.instances.toSeq.map(contents) == one.sortBy(_._1).map(p => contents(p._2)), s"$name trajectory ${ct.id}")
      assert(dec.times.toSeq == Decompressor.times(ct).toSeq)
    }
  }

  test("PathOps.resolve equals the ArrayBuilder walk on every instance of DK, CD and HZ") {
    for ((name, net, trajs, _, _) <- datasets; t <- trajs; inst <- t.instances) {
      val path = PathOps.resolve(net, inst)
      val (edges, sampleEdge, offsets) = resolve(net, inst)
      assert(path.edges.sameElements(edges) && path.sampleEdge.sameElements(sampleEdge) &&
        path.offsets.length == offsets.length && path.offsets.indices.forall(i => sameBits(path.offsets(i), offsets(i))),
        s"$name trajectory ${t.id}")
    }
  }

  test("Lemma 4's bound and when's tuples equal the (trajId, cell) map on DK, CD and HZ at 16² and 32²") {
    for ((name, net, trajs, meta, cts) <- datasets; params <- Seq(params16, params32)) {
      val grid = Grid.over(net, params.gridCells)
      val parts = trajs.zip(cts).map { case (t, ct) => StIU.buildFor(net, grid, meta, params, t, ct) }
      val index = StIU.assemble(grid, params.slotSeconds, parts)
      val byCell = refTupleMap(parts)
      assert(byCell.values.exists(_.size >= 2), s"$name: no cell holds several groups of one trajectory")
      assert(index.refTuples == byCell, name)
      for (t <- trajs; c <- 0 until grid.numCells)
        assert(index.tuplesIn(t.id, c) == byCell.getOrElse((t.id, c), Vector.empty), s"$name trajectory ${t.id} cell $c")

      val (minX, minY, maxX, maxY) = net.boundingBox
      val (w, h) = (maxX - minX, maxY - minY)
      val one = grid.cellRect(grid.numCells / 2 + grid.nx / 3)
      val oneCell = Rect(one.minX + grid.cellW / 4, one.minY + grid.cellH / 4,
        one.maxX - grid.cellW / 4, one.maxY - grid.cellH / 4)
      assert(cellsOf(grid, oneCell).size == 1)
      val rnd = new scala.util.Random(1504)
      val res = Seq(
        Rect(minX, minY, maxX, maxY),                                  // the whole box
        Rect(minX - 10, minY - 10, maxX + 10, maxY + 10),
        oneCell,
        Rect(minX - 2 * w, minY - 2 * h, minX - w, minY - h),          // outside, clamped to one corner
        Rect(maxX + w, minY + h / 3, maxX + 2 * w, minY + h / 2),      // outside, clamped to the last column
      ) ++ Seq.fill(40) {
        val (x, y) = (minX + rnd.nextDouble() * w, minY + rnd.nextDouble() * h)
        Rect(x, y, x + rnd.nextDouble() * w / 3, y + rnd.nextDouble() * h / 3)
      }
      for (re <- res; t <- trajs) {
        val (now, was) = (index.upperMass(t.id, grid.cellBox(re)), lemma4Upper(byCell, grid, t.id, re))
        assert(sameBits(now, was), s"$name trajectory ${t.id} RE $re: $now against $was")
      }
    }
  }
}

/** The read-path kernels as they were: factor lists built with
  * `Range.map`, reconstructions on `ArrayBuffer`s, instance decoders that
  * read a reference one field at a time (again for each of its
  * non-references), a path walk growing an `ArrayBuilder`, and the StIU
  * spatial tuples in a map keyed by (trajId, cell). References for
  * [[ReadKernelsSpec]] only.
  */
object ReadReferenceKernels {

  // ---------------------------------------------------------- RefFactors

  def decodeE(lay: ELayout, r: BitReader, atFactor: Int => Unit = _ => ()): IndexedSeq[EFactor] = {
    val h = ExpGolomb.decodeUnsigned(r)
    if (h == 0) return Vector.empty
    val lastHasM = r.readBit()
    (1 to h).map { i =>
      atFactor(r.pos)
      val s = r.readBits(lay.sBits).toInt
      if (s == lay.refLen) Sm(r.readBits(lay.symBits).toInt)
      else {
        val l = r.readBits(lay.lBits).toInt + 1
        require(s + l <= lay.refLen, s"E factor ($s, $l) outside a reference of ${lay.refLen} entries")
        if (i < h || lastHasM) Slm(s, l, r.readBits(lay.symBits).toInt)
        else Sl(s, l)
      }
    }
  }

  def reconstructE(ref: Array[Int], factors: Seq[EFactor]): Array[Int] = {
    if (factors.isEmpty) return ref.clone()
    val out = mutable.ArrayBuffer[Int]()
    factors.foreach {
      case Slm(s, l, m) => out ++= ref.slice(s, s + l); out += m
      case Sl(s, l)     => out ++= ref.slice(s, s + l)
      case Sm(m)        => out += m
    }
    out.toArray
  }

  def decodeTf(lay: TfLayout, r: BitReader): TfCom = {
    val h = ExpGolomb.decodeUnsigned(r)
    if (h == 0) return TfCom(Vector.empty, explicitMode = false)
    val explicitMode = r.readBit()
    val lastHasM = r.readBit()
    val fs = (1 to h).map { i =>
      val s = r.readBits(lay.sBits).toInt
      val l = r.readBits(lay.lBits).toInt
      val inferred = if (i < h && !explicitMode) 1 else 0 // an inferred M reads ref(s + l)
      require(s + l + inferred <= lay.refLen, s"T′ factor ($s, $l) outside a stored reference of ${lay.refLen} bits")
      val carriesM = if (i == h) lastHasM else explicitMode
      TfFactor(s, l, if (carriesM) Some(r.readBit()) else None)
    }
    TfCom(fs, explicitMode)
  }

  def reconstructTf(ref: Array[Boolean], com: TfCom): Array[Boolean] = {
    if (com.factors.isEmpty) return ref.clone()
    val out = mutable.ArrayBuffer[Boolean]()
    val n = com.factors.length
    com.factors.zipWithIndex.foreach { case (TfFactor(s, l, m), idx) =>
      out ++= ref.slice(s, s + l)
      m match {
        case Some(b) => out += b
        case None =>
          // Non-terminal factors infer M = NOT ref[S+L]; terminal factors
          // without M add nothing.
          if (idx < n - 1 && !com.explicitMode) out += !ref(s + l)
          else if (idx < n - 1 && com.explicitMode)
            throw new IllegalStateException("explicit-mode non-terminal factor must carry M")
      }
    }
    out.toArray
  }

  def decodeD(lay: DLayout, r: BitReader): IndexedSeq[DFactor] = {
    val h = ExpGolomb.decodeUnsigned(r)
    (1 to h).map { _ =>
      val pos = r.readBits(lay.posBits).toInt
      require(pos < lay.numSamples, s"D factor at sample $pos of ${lay.numSamples}")
      DFactor(pos, r.readBits(lay.rdBits))
    }
  }

  // -------------------------------------------------------- Decompressor

  def refSv(ct: CompressedTraj, slot: Int): Int =
    ct.bits.readBits(ct.refs(slot).svOff, ct.meta.svBits).toInt

  def refEdges(ct: CompressedTraj, slot: Int): Array[Int] = {
    val rl = ct.refs(slot)
    val symBits = ct.meta.symBits
    val out = new Array[Int](rl.eLen)
    var i = 0
    while (i < rl.eLen) {
      out(i) = ct.bits.readBits(rl.eOff + i * symBits, symBits).toInt
      i += 1
    }
    out
  }

  /** Stored T′ of a reference (first/last bits omitted). */
  def refStoredTf(ct: CompressedTraj, slot: Int): Array[Boolean] = {
    val rl = ct.refs(slot)
    val bits = ct.bits
    val out = new Array[Boolean](math.max(0, rl.eLen - 2))
    var i = 0
    while (i < out.length) { out(i) = bits(rl.tfOff + i); i += 1 }
    out
  }

  def refTf(ct: CompressedTraj, slot: Int): Array[Boolean] =
    Compressor.restoreTf(refStoredTf(ct, slot), ct.refs(slot).eLen)

  /** The n fixed-width D codes of a reference, as stored. */
  private def refDCodes(ct: CompressedTraj, slot: Int): Array[Long] = {
    val dOff = ct.refs(slot).dOff
    val bits = ct.meta.pddpD.bits
    val out = new Array[Long](ct.n)
    var i = 0
    while (i < out.length) { out(i) = ct.bits.readBits(dOff + i * bits, bits); i += 1 }
    out
  }

  /** Relative distances of D codes under the blob's η_D. */
  private def dists(ct: CompressedTraj, codes: Array[Long]): Array[Double] = {
    val pddpD = ct.meta.pddpD
    val out = new Array[Double](codes.length)
    var i = 0
    while (i < out.length) { out(i) = pddpD.dequantize(codes(i)); i += 1 }
    out
  }

  def refDists(ct: CompressedTraj, slot: Int): Array[Double] = dists(ct, refDCodes(ct, slot))

  def refInstance(ct: CompressedTraj, slot: Int): Instance = {
    val rl = ct.refs(slot)
    named(ct)(Instance(rl.prob, refSv(ct, slot), refEdges(ct, slot), refTf(ct, slot), refDists(ct, slot)))
  }

  /** `in`, with the `IllegalArgumentException` of an instance whose decoded
    * E, T′ and D do not align (a corrupt blob) naming the trajectory.
    */
  private def named(ct: CompressedTraj)(in: => Instance): Instance =
    try in
    catch { case e: IllegalArgumentException => throw new IllegalArgumentException(s"trajectory ${ct.id}: ${e.getMessage}", e) }

  /** Non-reference `k`, from one sequential read of its Com_E, Com_T′ and
    * Com_D (in blob order, from `comEOff`) against its reference.
    */
  def nonRefInstance(ct: CompressedTraj, k: Int): Instance = {
    val nl = ct.nonRefs(k)
    val slot = nl.refSlot
    val refLen = ct.refs(slot).eLen
    val r = new BitReader(ct.bits, nl.comEOff)
    val eFactors = RefFactors.decodeE(RefFactors.ELayout(refLen, ct.meta.symBits), r)
    val tfCom = RefFactors.decodeTf(RefFactors.TfLayout(math.max(0, refLen - 2)), r)
    val dFactors = RefFactors.decodeD(RefFactors.DLayout(ct.n, ct.meta.pddpD.bits), r)
    val edges = RefFactors.reconstructE(refEdges(ct, slot), eFactors)
    val tf = Compressor.restoreTf(RefFactors.reconstructTf(refStoredTf(ct, slot), tfCom), edges.length)
    val codes = reconstructD(refDCodes(ct, slot), dFactors)
    named(ct)(Instance(nl.prob, refSv(ct, slot), edges, tf, dists(ct, codes)))
  }

  /** `RefFactors.reconstructD` as it was, on D codes. */
  def reconstructD(refCodes: Array[Long], factors: Seq[DFactor]): Array[Long] = {
    val out = refCodes.clone()
    factors.foreach(f => out(f.pos) = f.code)
    out
  }

  // ------------------------------------------------------------ PathOps

  /** `PathOps.resolve`'s walk, returning (edges, sampleEdge, offsets). */
  def resolve(net: RoadNetwork, inst: Instance): (Array[Edge], Array[Int], Array[Double]) = {
    val edges = Array.newBuilder[Edge]
    val sampleEdge = new Array[Int](inst.numSamples)
    val offsets = new Array[Double](inst.numSamples)
    var v = inst.sv
    var cur: Edge = null
    var before = 0.0 // path length before the current edge
    var ord = -1
    var s = 0
    var i = 0
    while (i < inst.edges.length) {
      val no = inst.edges(i)
      if (no != 0) {
        if (cur != null) before += cur.length
        cur = net.edge(v, no); v = cur.to; ord += 1
        edges += cur
      }
      if (inst.tflags(i)) {
        sampleEdge(s) = ord
        offsets(s) = before + inst.dists(s) * cur.length
        s += 1
      }
      i += 1
    }
    (edges.result(), sampleEdge, offsets)
  }

  // --------------------------------------------------------------- StIU

  import StIU.{NonRefTuple, RefTuple, TemporalEntry}

  /** The index's spatial tuples as `StIU.assemble` grouped them, keyed by
    * (trajId, cell).
    */
  def refTupleMap(
      parts: Seq[(IndexedSeq[TemporalEntry], IndexedSeq[RefTuple], IndexedSeq[NonRefTuple])],
  ): Map[(Long, Int), IndexedSeq[RefTuple]] = {
    val refTuples = Map.newBuilder[(Long, Int), IndexedSeq[RefTuple]]
    parts.foreach { case (_, tuples, _) =>
      tuples.groupBy(_.cell).foreach { case (cell, ts) => refTuples += (ts.head.trajId, cell) -> ts.toVector }
    }
    refTuples.result()
  }

  def cellsOf(grid: Grid, re: Rect): Seq[Int] = {
    import grid._
    val cx0 = math.min(nx - 1, math.max(0, ((re.minX - minX) / cellW).toInt))
    val cx1 = math.min(nx - 1, math.max(0, ((re.maxX - minX) / cellW).toInt))
    val cy0 = math.min(ny - 1, math.max(0, ((re.minY - minY) / cellH).toInt))
    val cy1 = math.min(ny - 1, math.max(0, ((re.maxY - minY) / cellH).toInt))
    for (cy <- cy0 to cy1; cx <- cx0 to cx1) yield cy * nx + cx
  }

  /** `QueryEngine.range`'s Lemma 4 sum: one map probe per cell of RE. */
  def lemma4Upper(refTuples: Map[(Long, Int), IndexedSeq[RefTuple]], grid: Grid, trajId: Long, re: Rect): Double = {
    val cells = cellsOf(grid, re)
    var upper = 0.0
    cells.foreach { c =>
      refTuples.getOrElse((trajId, c), Vector.empty).foreach(rt => upper += rt.pTotal)
    }
    upper
  }
}
