package repro.core

import repro.SparkSpec
import repro.network.RoadNetworkGen
import repro.traj.UncertainTrajGen
import repro.util.BitReader

/** End-to-end compressor/decompressor tests over generated datasets. */
class CompressorSpec extends SparkSpec {

  private lazy val net = RoadNetworkGen.generate(RoadNetworkGen.CD)
  private lazy val params = Params(numPivots = 1)
  private lazy val meta = DatasetMeta.of(net, UncertainTrajGen.CD.defaultInterval, params)
  private lazy val trajs = UncertainTrajGen.dataset(net, UncertainTrajGen.CD, 80)

  test("round-trip: E, T', T, SV are lossless; D, p are eta-bounded") {
    trajs.foreach { t =>
      val ct = Compressor.compress(meta, params, t).ct
      val back = Decompressor.decompress(meta, ct)
      assert(back.times.toSeq == t.times.toSeq, s"times of traj ${t.id}")
      assert(back.instances.length == t.instances.length)
      t.instances.zip(back.instances).foreach { case (o, d) =>
        assert(d.sv == o.sv)
        assert(d.edges.toSeq == o.edges.toSeq)
        assert(d.tflags.toSeq == o.tflags.toSeq)
        o.dists.zip(d.dists).foreach { case (a, b) => assert(math.abs(a - b) <= params.etaD) }
        assert(math.abs(d.prob - o.prob) <= params.etaP)
      }
    }
  }

  test("compression shrinks every trajectory") {
    trajs.foreach { t =>
      val ct = Compressor.compress(meta, params, t).ct
      assert(ct.sizes.total < Sizes.original(t).total,
        s"traj ${t.id}: ${ct.sizes.total} vs ${Sizes.original(t).total}")
    }
  }

  test("size accounting matches the blob length exactly") {
    trajs.take(20).foreach { t =>
      val ct = Compressor.compress(meta, params, t).ct
      assert(ct.sizes.total == ct.blobBits.toLong)
    }
  }

  test("every instance is either a reference or has exactly one reference") {
    trajs.take(30).foreach { t =>
      val res = Compressor.compress(meta, params, t)
      val a = res.assignment
      t.instances.indices.foreach { i =>
        val isRef = a.refs.contains(i)
        val isNonRef = a.refOf.contains(i)
        assert(isRef != isNonRef, s"instance $i of traj ${t.id}")
      }
      a.refOf.foreach { case (_, r) => assert(a.refs.contains(r) && !a.refOf.contains(r)) }
    }
  }

  test("non-references share the start vertex of their reference") {
    trajs.take(30).foreach { t =>
      val a = Compressor.compress(meta, params, t).assignment
      a.refOf.foreach { case (nr, r) =>
        assert(t.instances(nr).sv == t.instances(r).sv)
      }
    }
  }

  test("more pivots never break the round-trip") {
    Seq(2, 3, 5).foreach { np =>
      val p = params.copy(numPivots = np)
      trajs.take(10).foreach { t =>
        val back = Decompressor.decompress(meta, Compressor.compress(meta, p, t).ct)
        assert(back.instances.map(_.edges.toSeq).toSeq == t.instances.map(_.edges.toSeq).toSeq)
      }
    }
  }

  test("referential E compression of non-references beats fixed-width coding") {
    var comBits = 0L
    var fixedBits = 0L
    trajs.foreach { t =>
      val res = Compressor.compress(meta, params, t)
      val ct = res.ct
      ct.nonRefs.foreach { nl =>
        val r = new BitReader(ct.bits, nl.comEOff)
        RefFactors.decodeE(RefFactors.ELayout(ct.refs(nl.refSlot).eLen, meta.symBits), r)
        comBits += (r.pos - nl.comEOff).toLong
        fixedBits += t.instances(nl.origIdx).edges.length.toLong * meta.symBits
      }
    }
    assert(comBits > 0)
    assert(comBits < fixedBits, s"referential $comBits vs fixed $fixedBits")
  }

  test("partial time decode from an arbitrary index matches the full decode") {
    trajs.take(20).foreach { t =>
      val ct = Compressor.compress(meta, params, t).ct
      val full = Decompressor.times(ct)
      assert(full.toSeq == t.times.toSeq)
      val mid = full.length / 2
      val suffix = Decompressor.timesFrom(ct, mid, full(mid))
      assert(suffix.toSeq == full.drop(mid).toSeq)
      val last = Decompressor.timesFrom(ct, full.length - 1, full.last)
      assert(last.toSeq == Seq(full.last))
    }
  }

  test("reference component random access agrees with full decode") {
    trajs.take(20).foreach { t =>
      val ct = Compressor.compress(meta, params, t).ct
      ct.refs.indices.foreach { s =>
        val inst = Decompressor.refInstance(ct, s)
        val orig = t.instances(ct.refs(s).origIdx)
        assert(inst.edges.toSeq == orig.edges.toSeq)
      }
    }
  }

  test("blob survives byte serialization (the Spark path)") {
    trajs.take(10).foreach { t =>
      val ct = Compressor.compress(meta, params, t).ct
      val revived = ct.copy() // lazy BitVec recomputed from bytes
      val back = Decompressor.decompress(meta, revived)
      assert(back.instances.map(_.edges.toSeq).toSeq == t.instances.map(_.edges.toSeq).toSeq)
    }
  }

  test("DK profile with 2 pivots round-trips") {
    val dkNet = RoadNetworkGen.generate(RoadNetworkGen.DK)
    val dkParams = Params(numPivots = 2)
    val dkMeta = DatasetMeta.of(dkNet, UncertainTrajGen.DK.defaultInterval, dkParams)
    UncertainTrajGen.dataset(dkNet, UncertainTrajGen.DK, 25).foreach { t =>
      val back = Decompressor.decompress(dkMeta, Compressor.compress(dkMeta, dkParams, t).ct)
      assert(back.instances.map(_.edges.toSeq).toSeq == t.instances.map(_.edges.toSeq).toSeq)
      assert(back.instances.map(_.tflags.toSeq).toSeq == t.instances.map(_.tflags.toSeq).toSeq)
    }
  }

  test("HZ profile with eta_p = 1/2048 round-trips") {
    val hzNet = RoadNetworkGen.generate(RoadNetworkGen.HZ)
    val hzParams = Params(numPivots = 1, etaP = 1.0 / 2048)
    val hzMeta = DatasetMeta.of(hzNet, UncertainTrajGen.HZ.defaultInterval, hzParams)
    UncertainTrajGen.dataset(hzNet, UncertainTrajGen.HZ, 25).foreach { t =>
      val back = Decompressor.decompress(hzMeta, Compressor.compress(hzMeta, hzParams, t).ct)
      t.instances.zip(back.instances).foreach { case (o, d) =>
        assert(math.abs(d.prob - o.prob) <= 1.0 / 2048)
      }
    }
  }
}
