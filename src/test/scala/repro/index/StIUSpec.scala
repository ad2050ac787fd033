package repro.index

import repro.SparkSpec
import repro.core._
import repro.network.RoadNetworkGen
import repro.traj.{PathOps, UncertainTrajGen}

class StIUSpec extends SparkSpec {

  private lazy val net = RoadNetworkGen.generate(RoadNetworkGen.CD)
  private lazy val params = Params(numPivots = 1, gridCells = 16, slotMinutes = 30)
  private lazy val meta = DatasetMeta.of(net, UncertainTrajGen.CD.defaultInterval, params)
  private lazy val grid = Grid.over(net, params.gridCells)
  private lazy val trajs = UncertainTrajGen.dataset(net, UncertainTrajGen.CD, 50)
  private lazy val parts = trajs.map { t =>
    val res = Compressor.compress(meta, params, t)
    (t, res.ct, StIU.buildFor(net, grid, meta, params, t, res.ct))
  }
  private lazy val index = StIU.assemble(grid, params.slotSeconds, parts.map(_._3))

  test("grid cells tile the bounding box") {
    val (minX, minY, maxX, maxY) = net.boundingBox
    assert(grid.cellOf(minX, minY) == 0)
    assert(grid.cellOf(maxX, maxY) == grid.numCells - 1)
    (0 until grid.numCells).foreach { c =>
      val r = grid.cellRect(c)
      val cx = (r.minX + r.maxX) / 2
      val cy = (r.minY + r.maxY) / 2
      assert(grid.cellOf(cx, cy) == c)
    }
  }

  test("cellsOf returns every cell intersecting a rectangle") {
    val r = grid.cellRect(grid.nx + 1) // second-row cell
    val cells = grid.cellsOf(GroundTruth.Rect(r.minX - 1, r.minY - 1, r.maxX + 1, r.maxY + 1))
    assert(cells.size == 9) // 3x3 neighbourhood
  }

  test("temporal entries: one per touched slot, with correct t.start and t.no") {
    parts.foreach { case (t, _, (temporal, _, _)) =>
      val slots = t.times.map(_ / params.slotSeconds).distinct
      assert(temporal.map(_.slot).toSeq == slots.toSeq)
      temporal.foreach { e =>
        assert(t.times(e.tNo) == e.tStart)
        assert(e.tStart / params.slotSeconds == e.slot)
        // t.start is the earliest timestamp in the slot
        assert(!t.times.exists(x => x < e.tStart && x / params.slotSeconds == e.slot))
      }
    }
  }

  test("temporal entry t.pos points at the next delta's code") {
    parts.take(10).foreach { case (t, ct, (temporal, _, _)) =>
      temporal.foreach { e =>
        if (e.tNo < ct.n - 1) {
          assert(e.tPos == ct.deltaOffs(e.tNo))
          val suffix = Decompressor.timesFrom(meta, ct, e.tNo, e.tStart)
          assert(suffix.toSeq == t.times.drop(e.tNo).toSeq)
        } else assert(e.tPos == -1)
      }
    }
  }

  test("every cell an instance traverses has a reference-group tuple") {
    parts.take(15).foreach { case (t, ct, (_, refTuples, _)) =>
      val cellsByGroup = refTuples.groupBy(_.refSlot).view.mapValues(_.map(_.cell).toSet).toMap
      ct.refs.indices.foreach { s =>
        val inst = t.instances(ct.refs(s).origIdx)
        val cells = StIU.cellArrivals(net, grid, inst).map(_._1).toSet
        assert(cells.subsetOf(cellsByGroup.getOrElse(s, Set.empty)))
      }
      ct.nonRefs.indices.foreach { k =>
        val inst = t.instances(ct.nonRefs(k).origIdx)
        val cells = StIU.cellArrivals(net, grid, inst).map(_._1).toSet
        val group = ct.nonRefs(k).refSlot
        assert(cells.subsetOf(cellsByGroup.getOrElse(group, Set.empty)))
      }
    }
  }

  test("arrivals hold the cell of every point along every edge (DK, CD, HZ)") {
    val rnd = new scala.util.Random(7)
    val rds = (0 to 8).map(_ / 8.0) ++ Seq.fill(8)(rnd.nextDouble())
    Seq(RoadNetworkGen.DK -> UncertainTrajGen.DK, RoadNetworkGen.CD -> UncertainTrajGen.CD,
        RoadNetworkGen.HZ -> UncertainTrajGen.HZ).foreach { case (netP, trajP) =>
      val n = RoadNetworkGen.generate(netP)
      Seq(16, 32).map(Grid.over(n, _)).foreach { g =>
        UncertainTrajGen.dataset(n, trajP, 60).foreach { t =>
          t.instances.foreach { inst =>
            val cells = StIU.cellArrivals(n, g, inst).map(_._1).toSet
            PathOps.pathEdges(n, inst).foreach { e =>
              rds.foreach { rd =>
                val x = n.xs(e.from) + rd * (n.xs(e.to) - n.xs(e.from))
                val y = n.ys(e.from) + rd * (n.ys(e.to) - n.ys(e.from))
                assert(cells.contains(g.cellOf(x, y)),
                  s"${netP} traj ${t.id}: edge ${e.from}->${e.to} at rd $rd, grid ${g.nx}")
              }
            }
          }
        }
      }
    }
  }

  test("cellsAlong lists a cell the segment only clips, in order of entry") {
    val g = Grid(0, 0, 1, 1, 4, 4)
    // From cell 0 to cell 5 through cell 4 for a sixth of its length, less
    // than the spacing of samples at cell/3.
    assert(g.cellsAlong(0.2, 0.75, 1.8, 1.35).toSeq == Seq(0, 4, 5))
    // Through a grid corner: the cells sharing it come in row-major order.
    assert(g.cellsAlong(0.5, 0.5, 1.5, 1.5).toSeq == Seq(0, 1, 4, 5))
    assert(Grid.entry(0, 0, 1, 0, repro.core.GroundTruth.Rect(2, 2, 3, 3)).isNaN)
  }

  test("p_total sums the probabilities of overlapping group members") {
    parts.take(15).foreach { case (t, ct, (_, refTuples, _)) =>
      refTuples.foreach { rt =>
        val members = (ct.refs.indices.filter(_ == rt.refSlot).map(s => (ct.refs(s).origIdx, ct.refs(s).prob)) ++
          ct.nonRefs.indices.filter(k => ct.nonRefs(k).refSlot == rt.refSlot)
            .map(k => (ct.nonRefs(k).origIdx, ct.nonRefs(k).prob)))
        val expected = members.filter { case (origIdx, _) =>
          StIU.cellArrivals(net, grid, t.instances(origIdx)).exists(_._1 == rt.cell)
        }.map(_._2).sum
        assert(math.abs(rt.pTotal - expected) < 1e-9)
      }
    }
  }

  test("p_max is the best non-reference probability in the cell (0 when none)") {
    parts.take(15).foreach { case (t, ct, (_, refTuples, _)) =>
      refTuples.foreach { rt =>
        val nonRefProbs = ct.nonRefs.indices
          .filter(k => ct.nonRefs(k).refSlot == rt.refSlot)
          .filter(k => StIU.cellArrivals(net, grid, t.instances(ct.nonRefs(k).origIdx)).exists(_._1 == rt.cell))
          .map(k => ct.nonRefs(k).prob)
        val expected = if (nonRefProbs.isEmpty) 0.0 else nonRefProbs.max
        assert(math.abs(rt.pMax - expected) < 1e-9)
      }
    }
  }

  test("fv.id = -1 exactly when the reference misses the cell") {
    parts.take(15).foreach { case (t, ct, (_, refTuples, _)) =>
      refTuples.foreach { rt =>
        val refInst = t.instances(ct.refs(rt.refSlot).origIdx)
        val refHits = StIU.cellArrivals(net, grid, refInst).exists(_._1 == rt.cell)
        assert((rt.fvId >= 0) == refHits)
      }
    }
  }

  test("reference tuple fv is the vertex traversed before entering the cell") {
    parts.take(10).foreach { case (t, ct, (_, refTuples, _)) =>
      refTuples.filter(_.fvId >= 0).foreach { rt =>
        val refInst = t.instances(ct.refs(rt.refSlot).origIdx)
        val verts = PathOps.pathVertices(net, refInst)
        assert(verts.contains(rt.fvId))
        if (rt.fvNo > 0) {
          // fv.no indexes an E entry whose edge leaves fv.
          val entryOf = StIU.entryIndexOfEdge(refInst)
          val ord = entryOf.indexOf(rt.fvNo)
          assert(ord >= 0)
          assert(verts(ord) == rt.fvId)
        }
      }
    }
  }

  test("d.pos points inside the reference's D section") {
    parts.take(10).foreach { case (_, ct, (_, refTuples, _)) =>
      refTuples.filter(_.fvId >= 0).foreach { rt =>
        val rl = ct.refs(rt.refSlot)
        assert(rt.dPos >= rl.dOff)
        assert(rt.dPos <= rl.dOff + ct.n * meta.pddpD.bits)
      }
    }
  }

  test("non-references get no tuples of their own: the third slot is empty") {
    parts.foreach { case (_, _, (_, _, nonRefTuples)) => assert(nonRefTuples.isEmpty) }
  }

  test("index size grows with finer grids") {
    val coarseGrid = Grid.over(net, 8)
    val fineGrid = Grid.over(net, 64)
    def sizeWith(g: Grid): Long = {
      val ps = trajs.take(20).map { t =>
        val res = Compressor.compress(meta, params, t)
        StIU.buildFor(net, g, meta, params, t, res.ct)
      }
      StIU.assemble(g, params.slotSeconds, ps).sizeBits
    }
    assert(sizeWith(fineGrid) > sizeWith(coarseGrid))
  }

  test("assemble groups tuples consistently") {
    index.refTuples.foreach { case ((id, cell), ts) =>
      ts.foreach(t => assert(t.trajId == id && t.cell == cell))
    }
    index.bySlot.foreach { case (slot, ids) =>
      ids.foreach(id => assert(index.temporal(id).exists(_.slot == slot)))
    }
  }
}
