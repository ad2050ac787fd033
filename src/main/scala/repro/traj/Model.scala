package repro.traj

import repro.network.{Edge, RoadNetwork}

/** One instance of a network-constrained uncertain trajectory (Def. 5),
  * already in the improved TED representation of §4.1:
  *
  * @param prob   probability of this instance (the Tuʲ_w.p of Def. 5)
  * @param sv     start vertex id SV (separated from the edge sequence)
  * @param edges  E(Tuʲ_w): outgoing edge numbers; an entry 0 repeats the
  *               previous edge for an additional mapped location on it
  * @param tflags T′(Tuʲ_w) at full length |edges| — bit i is true iff the
  *               i-th entry of `edges` carries a mapped location; the first
  *               and last bits are always true (the compressor drops them)
  * @param dists  D(Tuʲ_w): relative distance of each mapped location on its
  *               edge, in sample order; `dists.length` = number of true
  *               `tflags` = number of GPS samples
  */
final case class Instance(
    prob: Double,
    sv: Int,
    edges: Array[Int],
    tflags: Array[Boolean],
    dists: Array[Double],
) {
  require(edges.length == tflags.length, "T' must align with E entries")
  require(dists.length == tflags.count(identity), "one relative distance per mapped location")

  def numSamples: Int = dists.length
}

/** A network-constrained uncertain trajectory: N instances sharing one time
  * sequence (Def. 5). `times` are absolute seconds (length = sample count of
  * every instance); `defaultInterval` is the dataset's default sample
  * interval Ts used by SIAR.
  */
final case class UTraj(
    id: Long,
    times: Array[Int],
    defaultInterval: Int,
    instances: Array[Instance],
) {
  require(instances.nonEmpty, "an uncertain trajectory has at least one instance")
  require(
    instances.forall(_.numSamples == times.length),
    "all instances share the temporal information (Def. 5)")

  def numSamples: Int = times.length
}

/** A mapped location (Def. 2) materialized against the network: the sample
  * sits on `edge` at network distance `ndist` from `edge.from`
  * (`rd = ndist / edge.length`, Def. 7).
  */
final case class MappedLoc(edge: Edge, rd: Double) {
  def ndist: Double = rd * edge.length
}

/** An instance's path resolved against the network by one walk of its
  * E/T′ ([[PathOps.resolve]]): everything the ground-truth evaluator, the
  * StIU build and the compressed-side query processor read of an
  * instance's geometry.
  *
  * @param edges      the path edges (E's 0 repeat markers skipped)
  * @param sampleEdge the path-edge ordinal carrying each sample
  * @param offsets    network distance from the path start to each sample
  */
final class ResolvedPath(
    val inst: Instance,
    val edges: Array[Edge],
    val sampleEdge: Array[Int],
    val offsets: Array[Double],
) {

  /** Mapped location of sample `s`. */
  def mapped(s: Int): MappedLoc = MappedLoc(edges(sampleEdge(s)), inst.dists(s))

  /** The point at network distance `d` from the path start, clamped to the
    * path.
    */
  def locateAt(d: Double): MappedLoc = {
    var rem = math.max(0.0, d)
    var i = 0
    while (i < edges.length - 1 && rem > edges(i).length) { rem -= edges(i).length; i += 1 }
    val e = edges(i)
    MappedLoc(e, math.min(1.0, rem / e.length))
  }

  /** Location at time `t` between samples `i` (at `t1`) and `i + 1` (at
    * `t2`), t1 ≤ t ≤ t2: the sample itself at either end, otherwise linear
    * interpolation in network distance (the paper's Example 3).
    */
  def between(i: Int, t1: Int, t2: Int, t: Int): MappedLoc =
    if (t == t1) mapped(i)
    else if (t == t2) mapped(i + 1)
    else {
      val frac = (t - t1).toDouble / (t2 - t1)
      locateAt(offsets(i) + frac * (offsets(i + 1) - offsets(i)))
    }
}

/** The one walk of an instance path against the network. */
object PathOps {

  /** Resolve an instance's path in one walk of its E/T′. */
  def resolve(net: RoadNetwork, inst: Instance): ResolvedPath = {
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
    new ResolvedPath(inst, edges.result(), sampleEdge, offsets)
  }

  /** The edges of an instance path (0-entries skipped). */
  def pathEdges(net: RoadNetwork, inst: Instance): Array[Edge] = resolve(net, inst).edges
}
