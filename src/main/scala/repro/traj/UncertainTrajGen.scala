package repro.traj

import repro.network.{Edge, RoadNetwork}
import scala.collection.mutable
import scala.util.Random

/** Synthetic network-constrained uncertain trajectories (NCUTs).
  *
  * The paper's DK/CD/HZ datasets are probabilistic-map-matching outputs of
  * proprietary GPS fleets; this generator produces the same *format* (Def. 5:
  * a shared time sequence + N similar instances, each a path with mapped
  * locations) with the same *statistics* that UTCQ exploits:
  *
  *  - instances of one trajectory are small perturbations of a base path
  *    (Fig. 4b: edit distance mostly ≤ 5 within a trajectory), produced by
  *    replacing a short span of the base path with an alternative route —
  *    exactly what multi-hypothesis map-matching yields;
  *  - mapped locations on the unperturbed prefix/suffix keep identical
  *    relative distances across instances (§4.2's observation motivating the
  *    (pos, rd) referential format for D);
  *  - sample intervals deviate from the default Ts with dataset-specific
  *    frequencies (Fig. 4a: 93 % / 62 % / 54 % of intervals within 1 s of
  *    the default on DK / CD / HZ), feeding SIAR + improved Exp-Golomb;
  *  - instance counts and path lengths follow Table 5 means.
  *
  * Every trajectory is a deterministic function of (profile.seed, trajId), so
  * generation parallelizes over a Spark range without coordination.
  */
object UncertainTrajGen {

  /** Trajectory-generation profile for one paper dataset (scaled down). */
  final case class TrajProfile(
      name: String,
      meanInstances: Double,
      maxInstances: Int,
      meanEdges: Double,
      maxEdges: Int,
      defaultInterval: Int,       // Ts in seconds (Table 5)
      smallDevFraction: Double,   // fraction of intervals within 1 s of Ts (Fig. 4a)
      svShiftProb: Double,        // chance an instance starts at a different vertex
      seed: Long,
  )

  /** Denmark-like: avg 9 instances, avg 14 edges, Ts = 1 s, 93 % small deviations. */
  val DK: TrajProfile = TrajProfile("DK", 9.0, 60, 14.0, 139, 1, 0.93, 0.02, 101L)

  /** Chengdu-like: avg 3 instances, avg 11 edges, Ts = 10 s, 62 % small deviations. */
  val CD: TrajProfile = TrajProfile("CD", 3.0, 24, 11.0, 148, 10, 0.62, 0.02, 102L)

  /** Hangzhou-like: avg 13 instances, avg 13 edges, Ts = 20 s, 54 % small deviations. */
  val HZ: TrajProfile = TrajProfile("HZ", 13.0, 80, 13.0, 189, 20, 0.54, 0.02, 103L)

  /** Generate trajectory `trajId` of the profile deterministically. */
  def trajectory(net: RoadNetwork, p: TrajProfile, trajId: Long): UTraj = {
    val rnd = new Random(p.seed * 1000003L + trajId * 7919L + 17L)

    val nInst = instanceCount(rnd, p)
    val seen = mutable.Set[String]()
    var insts = mutable.ArrayBuffer[(Array[Edge], Array[(Int, Double)])]()

    def keyOf(path: Array[Edge], smp: Array[(Int, Double)]): String =
      path.map(e => s"${e.from}>${e.to}").mkString(",") + "|" +
        smp.map { case (i, rd) => f"$i:$rd%.6f" }.mkString(",")

    // A walk through a dead-end corner may admit no alternative hypothesis
    // at all; retry with a fresh walk so every uncertain trajectory has at
    // least two instances (Table 5's minimum).
    var walkTries = 0
    while (insts.length < 2 && walkTries < 5) {
      walkTries += 1
      seen.clear()
      insts = mutable.ArrayBuffer[(Array[Edge], Array[(Int, Double)])]()
      val basePath = randomWalk(net, rnd, targetLen(rnd, p))
      val n = math.max(2, math.round(basePath.length * (0.75 + rnd.nextDouble() * 0.3)).toInt)
      val samples = samplePositions(basePath, n, rnd)
      insts += ((basePath, samples))
      seen += keyOf(basePath, samples)

      var attempts = 0
      while (insts.length < nInst && attempts < nInst * 8) {
        attempts += 1
        // Perturb the base most of the time, but occasionally an existing
        // variant — map-matching hypotheses can differ in several spans at
        // once, and chaining keeps the instance pool diverse enough for
        // HZ-like instance counts while preserving pairwise similarity.
        val (fromPath, fromSamples) =
          if (insts.length > 1 && rnd.nextDouble() < 0.5) insts(rnd.nextInt(insts.length))
          else (basePath, samples)
        perturb(net, rnd, p, fromPath, fromSamples).foreach { case (path, smp) =>
          val k = keyOf(path, smp)
          if (!seen.contains(k)) { seen += k; insts += ((path, smp)) }
        }
      }
    }

    // Probabilities: the base (map-matching top hypothesis) dominates.
    val weights = insts.indices.map(i => if (i == 0) 3.0 + rnd.nextDouble() * 3.0 else 0.1 + rnd.nextDouble()).toArray
    val wSum = weights.sum
    val probs = weights.map(_ / wSum)

    val instances = insts.zipWithIndex.map { case ((path, smp), i) =>
      buildInstance(probs(i), path, smp)
    }.toArray

    UTraj(trajId, timeSequence(rnd, p, instances.head.numSamples), p.defaultInterval, instances)
  }

  def dataset(net: RoadNetwork, p: TrajProfile, numTrajectories: Int): IndexedSeq[UTraj] =
    (0 until numTrajectories).map(i => trajectory(net, p, i.toLong))

  // ---------------------------------------------------------------- internals

  private def targetLen(rnd: Random, p: TrajProfile): Int = {
    // Exponential-ish length with mean `meanEdges`, floored at 3 (a 2-edge
    // path leaves no interior span to perturb).
    val l = 3 + math.round(-math.log(1.0 - rnd.nextDouble()) * (p.meanEdges - 3.0)).toInt
    math.min(math.max(3, l), p.maxEdges)
  }

  private def instanceCount(rnd: Random, p: TrajProfile): Int = {
    val c = 2 + math.round(-math.log(1.0 - rnd.nextDouble()) * (p.meanInstances - 2.0)).toInt
    math.min(math.max(2, c), p.maxInstances)
  }

  /** Random walk without immediate backtracking or vertex revisits. Walks
    * that strand early in the sparse lattice are retried; the best walk so
    * far is kept so path lengths track the profile mean (Table 5).
    */
  def randomWalk(net: RoadNetwork, rnd: Random, len: Int): Array[Edge] = {
    var best: Array[Edge] = Array.empty
    var tries = 0
    while (tries < 50) {
      tries += 1
      val start = rnd.nextInt(net.numVertices)
      if (net.outEdges(start).nonEmpty) {
        val path = mutable.ArrayBuffer[Edge]()
        val visited = mutable.Set(start)
        var v = start
        var prev = -1
        var stuck = false
        while (path.length < len && !stuck) {
          val cands = net.outEdges(v).filter(e => e.to != prev && !visited.contains(e.to))
          if (cands.isEmpty) stuck = true
          else {
            val e = cands(rnd.nextInt(cands.length))
            path += e
            visited += e.to
            prev = v
            v = e.to
          }
        }
        if (path.length >= len) return path.toArray
        if (path.length > best.length) best = path.toArray
      }
    }
    if (best.length >= 3) best
    else throw new IllegalStateException("could not generate a random walk; network too sparse")
  }

  /** Sample positions along the base path: (edge index in path, rd), in
    * travel order, with one sample pinned to the start and one to the end
    * (the first and last edge of every instance carry a mapped location —
    * §4.1's rationale for dropping the first/last T′ bits).
    */
  private def samplePositions(path: Array[Edge], n: Int, rnd: Random): Array[(Int, Double)] = {
    val total = path.map(_.length).sum
    val ds = new Array[Double](n)
    ds(0) = 0.0
    ds(n - 1) = total
    var i = 1
    while (i < n - 1) {
      // Evenly spaced with jitter — a vehicle at roughly constant speed.
      val f = i.toDouble / (n - 1) + (rnd.nextDouble() - 0.5) * 0.5 / (n - 1)
      ds(i) = math.min(total, math.max(0.0, f * total))
      i += 1
    }
    java.util.Arrays.sort(ds)
    distToPositions(path, ds)
  }

  private def distToPositions(path: Array[Edge], ds: Array[Double]): Array[(Int, Double)] = {
    val out = new Array[(Int, Double)](ds.length)
    var k = 0
    var before = 0.0
    var s = 0
    while (s < ds.length) {
      while (k < path.length - 1 && ds(s) > before + path(k).length) { before += path(k).length; k += 1 }
      out(s) = (k, math.min(1.0, math.max(0.0, (ds(s) - before) / path(k).length)))
      s += 1
    }
    out
  }

  /** Perturb the base path on a short span [a, b): replace base edges a..b-1
    * by an alternative route between the same endpoint vertices (or, with
    * probability `svShiftProb`, re-root the first edge at a different start
    * vertex). Samples on the untouched prefix/suffix keep their (edge, rd)
    * verbatim; samples inside the span are redistributed over the new
    * subpath at the same relative progress.
    */
  private def perturb(
      net: RoadNetwork,
      rnd: Random,
      p: TrajProfile,
      base: Array[Edge],
      samples: Array[(Int, Double)],
  ): Option[(Array[Edge], Array[(Int, Double)])] = {
    val L = base.length
    val mode = rnd.nextDouble()
    def detour(): Option[(Array[Edge], Array[(Int, Double)])] = {
      val spanLen = 1 + rnd.nextInt(math.min(3, L - 1))
      val a = rnd.nextInt(L - spanLen)
      val b = a + spanLen
      val s = base(a).from
      val t = base(b - 1).to
      val banned = base(a)
      val alt = alternativePath(net, s, t, banned, spanLen + 3)
      alt.flatMap(ap => splice(base, samples, a, b, ap))
    }
    if (mode < 0.90 && L >= 2) {
      // Parallel two-edge alternative s→w→t with the same edge count: the
      // dominant probabilistic-map-matching ambiguity (a parallel road).
      // Retry several spans — corner spans of a lattice usually have one.
      var attempt = 0
      while (attempt < 8) {
        attempt += 1
        val a = rnd.nextInt(L - 1)
        val s = base(a).from
        val t = base(a + 1).to
        val origMid = base(a).to
        val cands = net.outEdges(s).filter(e => e.to != origMid && e.to != t && net.hasEdge(e.to, t))
        if (cands.nonEmpty) {
          val e1 = cands(rnd.nextInt(cands.length))
          net.edgeBetween(e1.to, t) match {
            case Some(e2) =>
              val res = splice(base, samples, a, a + 2, Array(e1, e2))
              if (res.isDefined) return res
            case None => ()
          }
        }
      }
      // No parallel alternative on any tried span (straight-line path):
      // fall back to a short detour so the hypothesis pool still grows.
      detour()
    } else if (mode < 0.90 + p.svShiftProb) {
      // Start-vertex shift: replace edge 0 by an alternative route from a
      // neighbouring vertex into base(0).to — models the first GPS point
      // being matched to a different road.
      val target = base(0).to
      val alt = alternativeInto(net, rnd, target, base(0).from)
      alt.flatMap(a => splice(base, samples, 0, 1, a))
    } else detour()
  }

  /** Shortest path s -> t avoiding `banned` as the first edge, bounded depth. */
  private[traj] def alternativePath(
      net: RoadNetwork, s: Int, t: Int, banned: Edge, maxDepth: Int): Option[Array[Edge]] = {
    // BFS over vertices; parent pointers reconstruct the path.
    val parent = mutable.Map[Int, Edge]()
    val depth = mutable.Map(s -> 0)
    val q = mutable.Queue(s)
    while (q.nonEmpty) {
      val v = q.dequeue()
      val d = depth(v)
      if (v == t && d > 0) {
        val path = mutable.ArrayBuffer[Edge]()
        var cur = t
        while (cur != s) { val e = parent(cur); path += e; cur = e.from }
        return Some(path.reverse.toArray)
      }
      if (d < maxDepth) {
        for (e <- net.outEdges(v)) {
          val isBanned = v == s && e.to == banned.to && e.from == banned.from
          if (!isBanned && !depth.contains(e.to)) {
            depth(e.to) = d + 1
            parent(e.to) = e
            q += e.to
          }
        }
      }
    }
    None
  }

  /** A 1–3 edge route ending at `target` from some vertex other than
    * `origFrom` — used for start-vertex shifts.
    */
  private def alternativeInto(
      net: RoadNetwork, rnd: Random, target: Int, origFrom: Int): Option[Array[Edge]] = {
    // In a mostly-bidirectional network, the out-neighbours of `target` are
    // also its in-neighbours; probe them.
    val cands = net.outEdges(target).map(_.to).filter(u => u != origFrom && net.hasEdge(u, target))
    if (cands.isEmpty) None
    else {
      val u = cands(rnd.nextInt(cands.length))
      net.edgeBetween(u, target).map(Array(_))
    }
  }

  /** Replace base[a, b) by `alt`, remapping samples. Returns None if the
    * spliced path would carry a sample span of zero length.
    */
  private def splice(
      base: Array[Edge],
      samples: Array[(Int, Double)],
      a: Int,
      b: Int,
      alt: Array[Edge],
  ): Option[(Array[Edge], Array[(Int, Double)])] = {
    if (alt.isEmpty) return None
    // Identical replacement => not a new instance.
    if (alt.length == b - a && alt.indices.forall(i => alt(i) == base(a + i))) return None
    val newPath = base.slice(0, a) ++ alt ++ base.slice(b, base.length)
    if (alt.length == b - a) {
      // Equal edge count: keep every sample's (edge index, rd) verbatim —
      // the mapped locations move to the parallel edges at the same
      // relative distance (the paper's Fig. 1 observation), preserving the
      // instance's T′ and D exactly.
      return Some((newPath, samples.clone()))
    }
    val spanOld = base.slice(a, b).map(_.length).sum
    val spanNew = alt.map(_.length).sum
    val shift = alt.length - (b - a)

    val newSamples = new Array[(Int, Double)](samples.length)
    var i = 0
    while (i < samples.length) {
      val (ei, rd) = samples(i)
      if (ei < a) newSamples(i) = (ei, rd)
      else if (ei >= b) newSamples(i) = (ei + shift, rd)
      else {
        // Progress of the sample within the replaced span.
        val within = base.slice(a, ei).map(_.length).sum + rd * base(ei).length
        val frac = if (spanOld <= 0) 0.0 else within / spanOld
        val dNew = frac * spanNew
        // Locate within alt.
        var k = 0
        var beforeK = 0.0
        while (k < alt.length - 1 && dNew > beforeK + alt(k).length) { beforeK += alt(k).length; k += 1 }
        newSamples(i) = (a + k, math.min(1.0, math.max(0.0, (dNew - beforeK) / alt(k).length)))
      }
      i += 1
    }
    Some((newPath, newSamples))
  }

  /** Build the improved-TED form (E with 0-padding, full-length T′, D) from a
    * path plus per-sample positions.
    */
  private[traj] def buildInstance(
      prob: Double, path: Array[Edge], samples: Array[(Int, Double)]): Instance = {
    val perEdge = Array.fill(path.length)(0)
    samples.foreach { case (ei, _) => perEdge(ei) += 1 }
    val edges = mutable.ArrayBuffer[Int]()
    val tflags = mutable.ArrayBuffer[Boolean]()
    var k = 0
    while (k < path.length) {
      edges += path(k).outNo
      tflags += (perEdge(k) > 0)
      var extra = perEdge(k) - 1
      while (extra > 0) { edges += 0; tflags += true; extra -= 1 }
      k += 1
    }
    Instance(prob, path(0).from, edges.toArray, tflags.toArray, samples.map(_._2))
  }

  /** Shared time sequence: t0 + intervals Ts + Δ with the profile's
    * deviation mix (Fig. 4a). Intervals are always ≥ 1 s.
    */
  private def timeSequence(rnd: Random, p: TrajProfile, n: Int): Array[Int] = {
    val ts = new Array[Int](n)
    val horizon = math.max(1, 86400 - n * (p.defaultInterval + 4) - 400)
    ts(0) = rnd.nextInt(horizon)
    var i = 1
    while (i < n) {
      val delta =
        if (rnd.nextDouble() < p.smallDevFraction) {
          val r = rnd.nextDouble()
          if (r < 0.5) 0 else if (r < 0.75) 1 else -1
        } else {
          val mag = 2 + math.round(-math.log(1.0 - rnd.nextDouble()) * 18.0).toInt
          if (rnd.nextBoolean()) mag else -mag
        }
      val interval = math.max(1, p.defaultInterval + delta)
      ts(i) = ts(i - 1) + interval
      i += 1
    }
    ts
  }
}
