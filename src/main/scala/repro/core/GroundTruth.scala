package repro.core

import repro.network.RoadNetwork
import repro.traj.{Instance, MappedLoc, PathOps, UTraj}

/** Brute-force evaluator of the three probabilistic query types (Def. 10–12)
  * over *uncompressed* uncertain trajectories. The compressed-side query
  * processor must agree with this oracle (up to the η error bounds).
  */
object GroundTruth {

  /** Location of an instance at time `t` (None outside its time span):
    * linear interpolation in network distance between the bracketing mapped
    * locations, as in the paper's Example 3.
    */
  def locationAt(net: RoadNetwork, times: Array[Int], inst: Instance, t: Int): Option[MappedLoc] = {
    if (t < times.head || t > times.last) return None
    var i = 0
    while (i < times.length - 1 && times(i + 1) < t) i += 1
    // times(i) <= t <= times(i+1) (with t == times.head handled by i = 0)
    Some(PathOps.resolve(net, inst).between(i, times(i), times(math.min(i + 1, times.length - 1)), t))
  }

  /** Probabilistic where query (Def. 10). */
  def where(net: RoadNetwork, traj: UTraj, t: Int, alpha: Double): Set[(Int, Int, Double)] =
    traj.instances.toIndexedSeq
      .filter(_.prob >= alpha)
      .flatMap(in => locationAt(net, traj.times, in, t))
      .map(l => (l.edge.from, l.edge.to, l.ndist))
      .toSet

  /** Timestamps at which an instance passes the mapped location
    * ⟨(vs→ve), rd⟩ (possibly several if the path repeats the edge). A
    * relative distance lies in [0, 1] (Def. 7): for any other rd, NaN
    * included, there is no such location and no pass.
    */
  def passTimes(net: RoadNetwork, times: Array[Int], inst: Instance,
      vs: Int, ve: Int, rd: Double): Seq[Double] = {
    if (!(rd >= 0.0 && rd <= 1.0)) return Seq.empty
    val path = PathOps.resolve(net, inst)
    val es = path.edges
    val offs = path.offsets
    val out = Seq.newBuilder[Double]
    var before = 0.0
    var k = 0
    while (k < es.length) {
      val e = es(k)
      if (e.from == vs && e.to == ve) {
        val d = before + rd * e.length
        // Interpolate time at path distance d between bracketing samples.
        if (d >= offs.head - 1e-9 && d <= offs.last + 1e-9) {
          // A single sample (j = i = 0) passes the point at times(0).
          var i = 0
          while (i < offs.length - 1 && offs(i + 1) < d - 1e-9) i += 1
          val j = math.min(i + 1, offs.length - 1)
          val span = offs(j) - offs(i)
          val frac = if (span <= 1e-12) 0.0 else (d - offs(i)) / span
          out += times(i) + frac * (times(j) - times(i))
        }
      }
      before += e.length
      k += 1
    }
    out.result()
  }

  /** Probabilistic when query (Def. 11). */
  def when(net: RoadNetwork, traj: UTraj, vs: Int, ve: Int, rd: Double,
      alpha: Double): Set[Double] =
    traj.instances.toIndexedSeq
      .filter(_.prob >= alpha)
      .flatMap(in => passTimes(net, traj.times, in, vs, ve, rd))
      .toSet

  /** Axis-aligned query region RE. */
  final case class Rect(minX: Double, minY: Double, maxX: Double, maxY: Double) {
    def contains(x: Double, y: Double): Boolean =
      x >= minX && x <= maxX && y >= minY && y <= maxY
  }

  /** Planar coordinates of a mapped location. */
  def locXY(net: RoadNetwork, loc: MappedLoc): (Double, Double) = {
    val e = loc.edge
    val x = net.xs(e.from) + loc.rd * (net.xs(e.to) - net.xs(e.from))
    val y = net.ys(e.from) + loc.rd * (net.ys(e.to) - net.ys(e.from))
    (x, y)
  }

  /** Probability mass of a trajectory inside RE at time `tq`. */
  def overlapProb(net: RoadNetwork, traj: UTraj, re: Rect, tq: Int): Double =
    traj.instances.toIndexedSeq.flatMap { in =>
      locationAt(net, traj.times, in, tq).map { l =>
        val (x, y) = locXY(net, l)
        if (re.contains(x, y)) in.prob else 0.0
      }
    }.sum

  /** Def. 12 for one trajectory: it has a location at `tq` (so α = 0 admits
    * exactly the live ones), and its mass inside RE reaches α.
    */
  def inRange(net: RoadNetwork, traj: UTraj, re: Rect, tq: Int, alpha: Double): Boolean =
    traj.times.head <= tq && tq <= traj.times.last && overlapProb(net, traj, re, tq) >= alpha

  /** Probabilistic range query (Def. 12). */
  def range(net: RoadNetwork, trajs: Seq[UTraj], re: Rect, tq: Int, alpha: Double): Set[Long] =
    trajs.filter(inRange(net, _, re, tq, alpha)).map(_.id).toSet
}
