package repro.stats

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

class TTestSpec extends AnyFunSuite with PropSupport {

  test("logGamma at known points") {
    // Gamma(1)=1, Gamma(2)=1, Gamma(3)=2, Gamma(0.5)=sqrt(pi)
    assert(math.abs(TTest.logGamma(1.0)) < 1e-10)
    assert(math.abs(TTest.logGamma(2.0)) < 1e-10)
    assert(math.abs(TTest.logGamma(3.0) - math.log(2.0)) < 1e-10)
    assert(math.abs(TTest.logGamma(0.5) - 0.5 * math.log(math.Pi)) < 1e-10)
  }

  test("regIncompleteBeta endpoints and symmetry") {
    assert(TTest.regIncompleteBeta(0.0, 2.0, 3.0) == 0.0)
    assert(TTest.regIncompleteBeta(1.0, 2.0, 3.0) == 1.0)
    // I_x(a,b) = 1 - I_{1-x}(b,a)
    val x = 0.37
    val lhs = TTest.regIncompleteBeta(x, 2.5, 1.7)
    val rhs = 1.0 - TTest.regIncompleteBeta(1 - x, 1.7, 2.5)
    assert(math.abs(lhs - rhs) < 1e-12)
  }

  test("regIncompleteBeta for a=b=1 is the identity (uniform CDF)") {
    Seq(0.1, 0.25, 0.5, 0.9).foreach { x =>
      assert(math.abs(TTest.regIncompleteBeta(x, 1.0, 1.0) - x) < 1e-12)
    }
  }

  test("t CDF at zero is one half") {
    Seq(1.0, 5.0, 30.0).foreach { df =>
      assert(math.abs(TTest.tCdf(0.0, df) - 0.5) < 1e-12)
    }
  }

  test("t CDF matches known quantiles") {
    // t_{0.975} quantiles: df=1 -> 12.706, df=5 -> 2.571, df=30 -> 2.042
    assert(math.abs(TTest.tCdf(12.706, 1) - 0.975) < 1e-3)
    assert(math.abs(TTest.tCdf(2.571, 5) - 0.975) < 1e-3)
    assert(math.abs(TTest.tCdf(2.042, 30) - 0.975) < 1e-3)
    // t_{0.95}: df=10 -> 1.812
    assert(math.abs(TTest.tCdf(1.812, 10) - 0.95) < 1e-3)
  }

  test("t CDF large-df approaches the normal CDF") {
    // Phi(1.96) ~= 0.975
    assert(math.abs(TTest.tCdf(1.96, 10000) - 0.975) < 2e-3)
  }

  test("t CDF is antisymmetric") {
    Seq((1.5, 7.0), (0.3, 2.0), (4.0, 20.0)).foreach { case (t, df) =>
      assert(math.abs(TTest.tCdf(t, df) + TTest.tCdf(-t, df) - 1.0) < 1e-10)
    }
  }

  test("p-value is 1 for tiny samples") {
    assert(TTest.oneSamplePValue(IndexedSeq(), 0.0) == 1.0)
    assert(TTest.oneSamplePValue(IndexedSeq(1.0), 0.0) == 1.0)
  }

  test("p-value small when the sample clearly differs from mu0") {
    val sample = IndexedSeq.tabulate(30)(i => 10.0 + (i % 3) * 0.1)
    assert(TTest.oneSamplePValue(sample, 0.0) < 1e-6)
  }

  test("p-value large when the sample is centered on mu0") {
    val rng = new scala.util.Random(3)
    val sample = IndexedSeq.fill(50)(5.0 + rng.nextGaussian())
    assert(TTest.oneSamplePValue(sample, 5.0) > 0.05)
  }

  test("degenerate (zero-variance) sample") {
    assert(TTest.oneSamplePValue(IndexedSeq(2.0, 2.0, 2.0), 2.0) == 1.0)
    assert(TTest.oneSamplePValue(IndexedSeq(2.0, 2.0, 2.0), 3.0) == 0.0)
  }

  test("summarize computes mean and sample std dev") {
    val s = TTest.summarize(IndexedSeq(2.0, 4.0, 6.0))
    assert(s.n == 3 && math.abs(s.mean - 4.0) < 1e-12)
    assert(math.abs(s.stdDev - 2.0) < 1e-12)
  }

  checkProp("property: p-values are in [0,1]", minTests = 40) {
    Prop.forAll(Gen.nonEmptyListOf(Gen.chooseNum(-50.0, 50.0)),
      Gen.chooseNum(-10.0, 10.0)) { (xs, mu) =>
      val p = TTest.oneSamplePValue(xs.toIndexedSeq, mu)
      p >= 0.0 && p <= 1.0
    }
  }

  checkProp("property: the running p-value matches oneSamplePValue on every prefix",
      minTests = 60) {
    // timing-like streams: a positive level with a relative spread, tested
    // against a mean near the level
    val stream = for {
      level <- Gen.chooseNum(1.0, 1e5)
      spread <- Gen.chooseNum(0.01, 1.0)
      offset <- Gen.chooseNum(-0.5, 0.5)
      seed <- Gen.long
      n <- Gen.choose(1, 120)
    } yield {
      val rng = new scala.util.Random(seed)
      (IndexedSeq.fill(n)(level * (1 + spread * rng.nextGaussian())), level * (1 + offset * spread))
    }
    Prop.forAll(stream) { case (xs, mu0) =>
      val running = new TTest.Running
      xs.indices.forall { i =>
        running.add(xs(i))
        math.abs(TTest.pValue(running.summary, mu0) -
          TTest.oneSamplePValue(xs.take(i + 1), mu0)) <= 1e-12
      }
    }
  }

  checkProp("property: t CDF is monotone in t", minTests = 30) {
    Prop.forAll(Gen.chooseNum(-5.0, 5.0), Gen.chooseNum(-5.0, 5.0),
      Gen.choose(1, 100)) { (t1, t2, df) =>
      val (lo, hi) = if (t1 < t2) (t1, t2) else (t2, t1)
      TTest.tCdf(lo, df.toDouble) <= TTest.tCdf(hi, df.toDouble) + 1e-12
    }
  }
}
