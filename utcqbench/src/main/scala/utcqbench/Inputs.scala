package utcqbench

import repro.core.{DatasetMeta, GroundTruth, Params}
import repro.core.GroundTruth.Rect
import repro.index.Grid
import repro.network.{RoadNetwork, RoadNetworkGen}
import repro.traj.{PathOps, UTraj, UncertainTrajGen}
import scala.util.Random

/** A generated HZ-like dataset and the constants the program derives from it. */
final case class Data(net: RoadNetwork, trajs: IndexedSeq[UTraj], meta: DatasetMeta, grid: Grid) {
  def instances: Int = trajs.map(_.instances.length).sum
}

/** Query inputs; `alpha` is the probability threshold of Defs. 10–12. */
sealed trait Query
final case class Where(trajId: Long, t: Int, alpha: Double) extends Query
final case class When(trajId: Long, vs: Int, ve: Int, rd: Double, alpha: Double) extends Query
final case class Range(re: Rect, tq: Int, alpha: Double) extends Query

/** Every input of a run is a function of the seed. */
object Inputs {

  /** Table 7 defaults: one pivot, η_D = 1/128, η_p = 1/512, 32×32 grid, 30-min slots. */
  val params: Params = Params()

  /** The HZ-like road network; the same map for every seed. */
  def network(): RoadNetwork = RoadNetworkGen.generate(RoadNetworkGen.HZ)

  private def hzProfile(seed: Long): UncertainTrajGen.TrajProfile =
    UncertainTrajGen.HZ.copy(seed = UncertainTrajGen.HZ.seed + 1000003L * seed)

  def data(net: RoadNetwork, trajs: IndexedSeq[UTraj]): Data =
    Data(net, trajs, DatasetMeta.of(net, UncertainTrajGen.HZ.defaultInterval, params),
      Grid.over(net, params.gridCells))

  /** Quantile `q` of the generator's count law: `min + Exp(mean − min)`, capped. */
  private def quantile(q: Double, min: Int, mean: Double, cap: Int): Int =
    math.min(cap, min + math.round(-math.log(1 - q) * (mean - min)).toInt)

  /** The `count` mid-quantiles of a count law, in ascending order. */
  def ladder(count: Int, min: Int, mean: Double, cap: Int): IndexedSeq[Int] =
    (0 until count).map(i => quantile((i + 0.5) / count, min, mean, cap))

  /** `count` trajectories of the default HZ profile, one per rung of two
    * ladders: instance counts 2 + Exp(11) up to 80 (mean 13) and path
    * lengths 3 + Exp(10) up to 189. Each rung takes a trajectory with
    * exactly that many instances and a base path within 25 % of that
    * length. The generator draws both from exponential laws and may fall
    * short of a draw (a short or stranded walk admits few alternatives); the
    * cost of a trajectory grows with their product and faster than linearly
    * with the instance count, so a few large or failed draws would decide a
    * seed's throughput and ratio. With fixed rungs every seed has the same
    * shape, and the seed varies the paths, detours, samples, probabilities
    * and times. Rung `i` takes the first of ids `i, i + count, i + 2·count,
    * …` that fits, else the closest of 20.
    */
  def hz(seed: Long, count: Int): Data = {
    val p = UncertainTrajGen.HZ
    val instances = ladder(count, 2, p.meanInstances, p.maxInstances)
    val edges = ladder(count, 3, p.meanEdges, p.maxEdges)
    val net = network()
    val base = hzProfile(seed)
    // One fixed pairing of the two ladders for every seed.
    val pairing = new Random(20200707L).shuffle(edges.indices.toVector)
    val trajs = instances.indices.map { i =>
      val (want, len) = (instances(i), edges(pairing(i)))
      // Means far above the caps make the generator's draws the caps themselves.
      val rung = base.copy(meanInstances = 1e9, maxInstances = want, meanEdges = 1e9, maxEdges = len)
      def miss(t: UTraj): Double =
        math.abs(t.instances.length - want).toDouble / want +
          math.max(0.0, math.abs(t.instances.head.edges.count(_ != 0) - len) / len.toDouble - 0.25)
      val tries = Iterator.range(0, 20).map(a => UncertainTrajGen.trajectory(net, rung, i.toLong + a.toLong * count))
      var best: UTraj = null
      while (tries.hasNext && (best == null || miss(best) > 0)) {
        val t = tries.next()
        if (best == null || miss(t) < miss(best)) best = t
      }
      best
    }
    data(net, trajs)
  }

  private val alphas = Array(0.01, 0.05, 0.1, 0.2, 0.3, 0.5)

  /** `groups` repetitions of `pattern` ('w' where, 'n' when, 'r' range),
    * each query anchored on a random trajectory: a time inside its span, a
    * point on one of its instances' edges, or a square of half-side
    * 200–1,500 m around an instance's location at a time inside its span.
    */
  def queries(net: RoadNetwork, trajs: IndexedSeq[UTraj], seed: Long, groups: Int, pattern: String): IndexedSeq[Query] = {
    val rnd = new Random(seed * 6364136223846793005L + 1442695040888963407L)
    def pick(): UTraj = trajs(rnd.nextInt(trajs.length))
    def timeIn(t: UTraj): Int = t.times.head + rnd.nextInt(t.times.last - t.times.head + 1)
    def alpha(): Double = alphas(rnd.nextInt(alphas.length))
    def where(): Query = {
      val a = pick()
      Where(a.id, timeIn(a), alpha())
    }
    def when(): Query = {
      val b = pick()
      val es = PathOps.pathEdges(net, b.instances(rnd.nextInt(b.instances.length)))
      val e = es(rnd.nextInt(es.length))
      When(b.id, e.from, e.to, rnd.nextDouble(), alpha())
    }
    def range(): Query = {
      val c = pick()
      val tq = timeIn(c)
      val inst = c.instances(rnd.nextInt(c.instances.length))
      val (x, y) = GroundTruth.locXY(net, GroundTruth.locationAt(net, c.times, inst, tq).get)
      val half = 200.0 + rnd.nextDouble() * 1300.0
      Range(Rect(x - half, y - half, x + half, y + half), tq, alpha())
    }
    (0 until groups).flatMap(_ => pattern.map {
      case 'w' => where()
      case 'n' => when()
      case 'r' => range()
    })
  }
}
