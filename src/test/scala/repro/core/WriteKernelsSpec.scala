package repro.core

import repro.SparkSpec
import repro.index.{Grid, StIU}
import repro.network.{RoadNetwork, RoadNetworkGen}
import repro.traj.{Instance, PathOps, ResolvedPath, UTraj, UncertainTrajGen}
import repro.util.{BitVec, BitWriter}
import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import scala.collection.mutable
import scala.util.Random

/** Differential tests of the write-path kernels — the pivot representation,
  * FJD and score matrix, reference selection, the T′ parse, the bit writer
  * and the StIU build — against [[ReferenceKernels]], the earlier
  * implementations kept as references. Every output must be identical:
  * scores bit for bit, assignments, factor lists and indexes by `==`.
  */
class WriteKernelsSpec extends SparkSpec {
  import ReferenceKernels._

  private def check(seed: Long, tests: Int)(prop: Prop): Unit = {
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(Seed(seed)), prop)
    assert(res.passed, res)
  }

  private def sameBits(a: Double, b: Double) =
    java.lang.Double.doubleToRawLongBits(a) == java.lang.Double.doubleToRawLongBits(b)

  /** Instances of one trajectory: edge sequences over a small alphabet
    * (long factors, many equal-length ties), some repeated verbatim, with
    * start vertices all equal, all distinct or drawn from a few, and
    * probabilities from a few values.
    */
  private val instances: Gen[(Array[Array[Int]], Array[Int], Array[Double])] = for {
    alphabet <- Gen.choose(1, 4)
    n <- Gen.choose(1, 30)
    bases <- Gen.listOfN(n, Gen.choose(1, 40).flatMap(len => Gen.listOfN(len, Gen.choose(1, alphabet))))
    copies <- Gen.listOfN(n, Gen.frequency(3 -> Gen.const(-1), 1 -> Gen.choose(0, n - 1)))
    svKind <- Gen.choose(0, 2)
    svs <- Gen.listOfN(n, Gen.choose(0, 2))
    probs <- Gen.listOfN(n, Gen.oneOf(0.125, 0.25, 0.5, 1.0 / 3))
  } yield {
    val seqs = bases.map(_.toArray).toArray
    copies.zipWithIndex.foreach { case (c, i) => if (c >= 0) seqs(i) = seqs(c).clone() } // identical instances
    val sv = svKind match {
      case 0 => Array.fill(n)(7)
      case 1 => Array.tabulate(n)(i => i) // all distinct: an all-zero matrix
      case _ => svs.toArray
    }
    (seqs, sv, probs.toArray)
  }

  test("pivot representations, FJD and the score matrix equal the Option-based reference bit for bit") {
    check(1101L, 300)(Prop.forAll(instances, Gen.choose(1, 3), Gen.long) { case ((seqs, svs, probs), np, seed) =>
      val (piv, coms) = Pivots.selectPivots(seqs, np, new Random(seed))
      val (refPiv, refComs) = selectPivots(seqs, np, new Random(seed))
      val sameComs = coms.indices.forall(p => coms(p).indices.forall(w => coms(p)(w).factors == refComs(p)(w).factors &&
        coms(p)(w).h == refComs(p)(w).h))
      val sameFjd = coms.indices.forall(p => seqs.indices.forall(w => seqs.indices.forall(v =>
        sameBits(Pivots.fjd(coms(p)(w), coms(p)(v)), fjd(refComs(p)(w), refComs(p)(v))))))
      val sm = Pivots.scoreMatrix(probs, svs, coms)
      val refSm = scoreMatrix(probs, svs, refComs)
      piv == refPiv && sameComs && sameFjd &&
        sm.indices.forall(w => sm(w).indices.forall(v => sameBits(sm(w)(v), refSm(w)(v))))
    })
  }

  test("RefSelect.select equals the repeated max-scan of Algorithm 1 on matrices with many ties and zeros") {
    val matrix = for {
      n <- Gen.frequency(4 -> Gen.choose(0, 20), 1 -> Gen.choose(21, 200))
      kind <- Gen.choose(0, 2)
      seed <- Gen.long
    } yield {
      val rnd = new Random(seed)
      val few = if (kind == 0) Array(0.0, 0.5, 1.0) else Array(0.0, 0.0, 0.0, 0.125, 0.25, 0.375)
      Array.fill(n, n) {
        if (kind < 2) few(rnd.nextInt(few.length))
        else if (rnd.nextInt(3) == 0) 0.0
        else rnd.nextDouble()
      }
    }
    check(1102L, 200)(Prop.forAll(matrix)((sm: Array[Array[Double]]) => RefSelect.select(sm) == select(sm)))
  }

  test("the one T′ parse equals the implicit and explicit Boolean parses on bit-strings of up to 16 bits") {
    val bits = Gen.choose(0, 16).flatMap(Gen.listOfN(_, Gen.oneOf(false, true))).map(_.toArray)
    val ref = Gen.frequency(
      4 -> bits,
      1 -> Gen.choose(0, 16).map(Array.fill(_)(false)),
      1 -> Gen.choose(0, 16).map(Array.fill(_)(true)))
    val pair = for {
      r <- ref
      kind <- Gen.choose(0, 2)
      t <- kind match {
        case 0 => Gen.const(Array.empty[Boolean])
        case 1 if r.nonEmpty => Gen.choose(0, r.length - 1).map(i => r.updated(i, !r(i))) // one-bit flip
        case _ => bits
      }
    } yield (r, t)
    check(1104L, 3000)(Prop.forAll(pair) { case (r, t) => RefFactors.factorizeTf(r, t) == factorizeTf(r, t) })
  }

  test("BitWriter equals a per-bit writer on streams that cross word boundaries") {
    val field = for {
      width <- Gen.frequency(1 -> Gen.const(0), 1 -> Gen.const(64), 6 -> Gen.choose(1, 63))
      value <- Gen.frequency(
        3 -> Gen.long,
        1 -> Gen.const(-1L),
        1 -> Gen.const(0L))
    } yield (if (width == 64) value else value & ((1L << width) - 1), width)
    check(1103L, 500)(Prop.forAll(Gen.listOf(field)) { fields =>
      val w = new BitWriter
      val ref = new PerBitWriter
      fields.foreach { case (v, width) => w.writeBits(v, width); ref.writeBits(v, width) }
      val (a, b) = (w.toBitVec, ref.toBitVec)
      w.length == ref.length && a == b && a.toBytes.sameElements(b.toBytes)
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
    (tp.name, net, tp, UncertainTrajGen.dataset(net, tp, 40))
  }

  test("cellArrivals equals the LinkedHashMap reference on DK, CD and HZ at 16² and 32²") {
    for ((name, net, _, trajs) <- datasets; params <- Seq(params16, params32)) {
      val grid = Grid.over(net, params.gridCells)
      trajs.foreach(_.instances.foreach { inst =>
        assert(StIU.cellArrivals(net, grid, inst) == cellArrivals(net, grid, PathOps.resolve(net, inst)),
          s"$name at ${params.gridCells}²")
      })
    }
  }

  test("buildFor and assemble equal the reference build on DK, CD and HZ at 16² and 32²") {
    for ((name, net, tp, trajs) <- datasets; params <- Seq(params16, params32)) {
      val meta = DatasetMeta.of(net, tp.defaultInterval, params)
      val grid = Grid.over(net, params.gridCells)
      val built = trajs.map { t =>
        val ct = Compressor.compress(meta, params, t).ct
        val part = StIU.buildFor(net, grid, meta, params, t, ct)
        val ref = buildFor(net, grid, meta, params, t, ct)
        assert(part._1 == ref._1, s"$name trajectory ${t.id}: temporal entries")
        assert(part._2.groupBy(identity).view.mapValues(_.size).toMap ==
          ref._2.groupBy(identity).view.mapValues(_.size).toMap, s"$name trajectory ${t.id}: reference tuples")
        assert(part._3.isEmpty && ref._3.isEmpty)
        (part, ref)
      }
      assert(StIU.assemble(grid, params.slotSeconds, built.map(_._1)) ==
        assemble(grid, params.slotSeconds, built.map(_._2)), s"$name at ${params.gridCells}²")
    }
  }
}

/** The write-path kernels as they were: `Option` factors in a `Vector`, an
  * O(N³) repeated max-scan, two greedy T′ parses on Boolean arrays, a
  * per-bit writer on an `ArrayBuffer[Long]`, and a `LinkedHashMap` of cell
  * arrivals. References for [[WriteKernelsSpec]] only.
  */
object ReferenceKernels {

  // ------------------------------------------------------------- Pivots

  type PivotFactor = Option[(Int, Int)]

  final case class PivotCom(factors: IndexedSeq[PivotFactor]) {
    def h: Int = factors.length
  }

  def represent(pivot: Array[Int], target: Array[Int]): PivotCom = {
    val out = mutable.ArrayBuffer[PivotFactor]()
    var i = 0
    while (i < target.length) {
      val (s, l) = RefFactors.longestMatch(pivot, target, i)
      if (l == 0) { out += None; i += 1 }
      else { out += Some((s, l)); i += l }
    }
    PivotCom(out.toVector)
  }

  def selectPivots(
      edgeSeqs: Array[Array[Int]],
      np: Int,
      rnd: Random,
  ): (IndexedSeq[Int], IndexedSeq[Array[PivotCom]]) = {
    val n = edgeSeqs.length
    val want = math.min(np, n)
    val pivots = mutable.ArrayBuffer[Int]()
    val comsPerPivot = mutable.ArrayBuffer[Array[PivotCom]]()

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

  def overlap(f1: (Int, Int), f2: (Int, Int)): Int = {
    val (s1, l1) = f1
    val (s2, l2) = f2
    math.max(math.min(s1 + l1, s2 + l2) - math.max(s1, s2), 0)
  }

  def factorSim(vFactor: (Int, Int), wCom: PivotCom): Double = {
    var bestOverlap = 0
    var lMax = Int.MaxValue
    wCom.factors.foreach {
      case Some(wf) =>
        val o = overlap(wf, vFactor)
        if (o > bestOverlap || (o == bestOverlap && o > 0 && wf._2 < lMax)) {
          if (o > bestOverlap) { bestOverlap = o; lMax = wf._2 }
          else lMax = math.min(lMax, wf._2)
        }
      case None => ()
    }
    if (bestOverlap == 0) 0.0
    else bestOverlap.toDouble / math.max(lMax, vFactor._2)
  }

  def fjd(wCom: PivotCom, vCom: PivotCom): Double = {
    val h = wCom.h
    val hPrime = vCom.h
    if (math.max(h, hPrime) == 0) return 0.0
    var sum = 0.0
    vCom.factors.foreach {
      case Some(vf) => sum += factorSim(vf, wCom)
      case None     => ()
    }
    sum / math.max(h, hPrime)
  }

  def scoreMatrix(
      probs: Array[Double],
      startVertices: Array[Int],
      comsPerPivot: IndexedSeq[Array[PivotCom]],
  ): Array[Array[Double]] = {
    val n = probs.length
    Array.tabulate(n, n) { (w, v) =>
      if (w == v || startVertices(w) != startVertices(v)) 0.0
      else {
        var best = 0.0
        comsPerPivot.foreach { coms =>
          val d = fjd(coms(w), coms(v))
          if (d > best) best = d
        }
        probs(w) * best
      }
    }
  }

  // ---------------------------------------------------------- RefSelect

  def select(sm: Array[Array[Double]]): RefSelect.Assignment = {
    val n = sm.length
    val rowActive = Array.fill(n)(true)
    val colActive = Array.fill(n)(true)
    val refs = mutable.ArrayBuffer[Int]()
    val refSet = mutable.Set[Int]()
    val rrs = mutable.Map[Int, mutable.ArrayBuffer[Int]]()
    val refOf = mutable.Map[Int, Int]()

    var done = false
    while (!done) {
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
          colActive(bw) = false
        }
        rrs(bw) += bv
        refOf(bv) = bw
        colActive(bv) = false
        rowActive(bv) = false
      }
    }
    RefSelect.Assignment(refs.toVector, rrs.map { case (k, v) => k -> v.toVector }.toMap, refOf.toMap)
  }

  // ---------------------------------------------------------------- T′

  import RefFactors.{TfCom, TfFactor}

  def factorizeTf(ref: Array[Boolean], target: Array[Boolean]): TfCom = {
    if (ref.length == target.length && ref.indices.forall(i => ref(i) == target(i)))
      return TfCom(Vector.empty, explicitMode = false)
    if (target.isEmpty)
      // An empty factor list means "identical to the reference", so an empty
      // target against a non-empty reference needs one explicit zero-length
      // terminal factor.
      return TfCom(Vector(TfFactor(0, 0, None)), explicitMode = true)
    implicitParse(ref, target) match {
      case Some(fs) => TfCom(fs, explicitMode = false)
      case None     => TfCom(explicitParse(ref, target), explicitMode = true)
    }
  }

  private def longestBitMatch(ref: Array[Boolean], target: Array[Boolean], from: Int): (Int, Int) = {
    var bestS = 0; var bestL = 0
    var s = 0
    while (s < ref.length) {
      var l = 0
      while (s + l < ref.length && from + l < target.length && ref(s + l) == target(from + l)) l += 1
      if (l > bestL) { bestL = l; bestS = s }
      s += 1
    }
    (bestS, bestL)
  }

  private def implicitParse(ref: Array[Boolean], target: Array[Boolean]): Option[IndexedSeq[TfFactor]] = {
    val out = mutable.ArrayBuffer[TfFactor]()
    var i = 0
    while (i < target.length) {
      val (maxS, maxL) = longestBitMatch(ref, target, i)
      if (maxL == 0) return None // bit not present in ref at all
      if (i + maxL == target.length) {
        // Terminal factor, no mismatch — (S, L) with hasM = false.
        out += TfFactor(maxS, maxL, None)
        i += maxL
      } else {
        // Need an in-range genuine mismatch so the decoder can infer M.
        var s = 0; var found = -1
        while (s < ref.length && found < 0) {
          if (s + maxL < ref.length) {
            var l = 0
            while (l < maxL && ref(s + l) == target(i + l)) l += 1
            if (l == maxL) found = s // maximality ⇒ ref(s+maxL) != target(i+maxL)
          }
          s += 1
        }
        if (found < 0) return None
        val isLast = i + maxL + 1 == target.length
        out += TfFactor(found, maxL, if (isLast) Some(target(i + maxL)) else None)
        i += maxL + 1
      }
    }
    // Paper: keep the last factor as (S,L,M) when its mismatch exists.
    Some(out.toVector)
  }

  private def explicitParse(ref: Array[Boolean], target: Array[Boolean]): IndexedSeq[TfFactor] = {
    val out = mutable.ArrayBuffer[TfFactor]()
    var i = 0
    while (i < target.length) {
      val (s, l) = longestBitMatch(ref, target, i)
      if (i + l == target.length) { out += TfFactor(s, l, None); i += l }
      else { out += TfFactor(s, l, Some(target(i + l))); i += l + 1 }
    }
    out.toVector
  }

  // ---------------------------------------------------------- BitWriter

  final class PerBitWriter {
    private val words = mutable.ArrayBuffer[Long]()
    private var nbits: Int = 0

    def length: Int = nbits

    def writeBit(b: Boolean): Unit = {
      val word = nbits >>> 6
      if (word >= words.length) words += 0L
      if (b) words(word) |= (1L << (63 - (nbits & 63)))
      nbits += 1
    }

    def writeBits(value: Long, width: Int): Unit = {
      require(width >= 0 && width <= 64, s"bad width $width")
      require(width == 64 || (value >>> width) == 0, s"value $value does not fit in $width bits")
      var i = width - 1
      while (i >= 0) {
        writeBit(((value >>> i) & 1L) == 1L)
        i -= 1
      }
    }

    def toBitVec: BitVec = new BitVec(words.toArray, nbits)
  }

  // --------------------------------------------------------------- StIU

  import StIU.{Index, NonRefTuple, RefTuple, TemporalEntry}

  def cellArrivals(net: RoadNetwork, grid: Grid, inst: Instance): IndexedSeq[(Int, Int)] =
    cellArrivals(net, grid, PathOps.resolve(net, inst))

  def cellArrivals(net: RoadNetwork, grid: Grid, path: ResolvedPath): IndexedSeq[(Int, Int)] = {
    val es = path.edges
    val sv = path.inst.sv
    val out = mutable.LinkedHashMap[Int, Int]()
    out(grid.cellOf(net.xs(sv), net.ys(sv))) = -1
    var j = 0
    while (j < es.length) {
      val e = es(j)
      grid.cellsAlong(net.xs(e.from), net.ys(e.from), net.xs(e.to), net.ys(e.to))
        .foreach(c => if (!out.contains(c)) out(c) = j)
      j += 1
    }
    out.toVector
  }

  def buildFor(
      net: RoadNetwork,
      grid: Grid,
      meta: DatasetMeta,
      params: Params,
      traj: UTraj,
      ct: CompressedTraj,
  ): (IndexedSeq[TemporalEntry], IndexedSeq[RefTuple], IndexedSeq[NonRefTuple]) = {
    ct.requireMeta(meta)

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

    val refPaths = ct.refs.map(rl => PathOps.resolve(net, traj.instances(rl.origIdx)))
    val refCells = refPaths.map(cellArrivals(net, grid, _).toMap)
    val nonRefCells = ct.nonRefs.map(nl => cellArrivals(net, grid, traj.instances(nl.origIdx)).map(_._1).toSet)
    val refTuples = mutable.ArrayBuffer[RefTuple]()
    ct.refs.indices.foreach { refSlot =>
      val rl = ct.refs(refSlot)
      val entering = refCells(refSlot)
      val nonRefs = ct.nonRefs.indices.filter(ct.nonRefs(_).refSlot == refSlot)

      (entering.keySet ++ nonRefs.flatMap(nonRefCells)).foreach { cell =>
        val nonRefProbs = nonRefs.filter(nonRefCells(_).contains(cell)).map(ct.nonRefs(_).prob)
        val pMax = if (nonRefProbs.isEmpty) 0.0 else nonRefProbs.max
        val pTotal = (if (entering.contains(cell)) rl.prob else 0.0) + nonRefProbs.sum
        refTuples += RefTuple(traj.id, cell, refSlot, entering.contains(cell), pTotal, pMax)
      }
    }

    (temporal.toVector, refTuples.toVector, Vector.empty)
  }

  def assemble(
      grid: Grid,
      slotSeconds: Int,
      parts: Seq[(IndexedSeq[TemporalEntry], IndexedSeq[RefTuple], IndexedSeq[NonRefTuple])],
  ): Index = {
    val temporal = parts.flatMap(_._1)
    val byTraj = temporal.groupBy(_.trajId).view.mapValues(_.sortBy(_.tStart).toVector).toMap
    val spans = temporal.map(_.trajId).distinct.flatMap { id =>
      (byTraj(id).head.tStart / slotSeconds to byTraj(id).last.tStart / slotSeconds).map(_ -> id)
    }
    Index(
      grid,
      slotSeconds,
      byTraj,
      spans.groupMap(_._1)(_._2).view.mapValues(_.toVector).toMap,
      parts.flatMap(_._2).groupBy(_.trajId).view.mapValues(_.sortBy(t => (t.cell, t.refSlot)).toVector).toMap,
    )
  }
}
