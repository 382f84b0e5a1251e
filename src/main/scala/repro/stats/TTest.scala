package repro.stats

/** One-sample Student's t-test — RECOPT's early-stopping primitive (§4.1).
  *
  * RECOPT compares the stream of per-user index query times against the
  * (extrapolated) mean per-user matrix-multiply time, and stops sampling as
  * soon as the two-sided p-value drops below a threshold. The t CDF is
  * computed via the regularized incomplete beta function (continued
  * fraction, Lentz's algorithm) — no external stats library is available
  * offline, so the special functions are implemented here and unit-tested
  * against known quantiles.
  */
object TTest {

  /** ln Gamma(x) (Lanczos approximation, g=7). */
  def logGamma(x: Double): Double = {
    val g = Array(
      676.5203681218851, -1259.1392167224028, 771.32342877765313,
      -176.61502916214059, 12.507343278686905, -0.13857109526572012,
      9.9843695780195716e-6, 1.5056327351493116e-7)
    if (x < 0.5) {
      math.log(math.Pi / math.sin(math.Pi * x)) - logGamma(1.0 - x)
    } else {
      val z = x - 1.0
      var a = 0.99999999999980993
      var i = 0
      while (i < g.length) { a += g(i) / (z + i + 1); i += 1 }
      val t = z + g.length - 0.5
      0.5 * math.log(2 * math.Pi) + (z + 0.5) * math.log(t) - t + math.log(a)
    }
  }

  /** Regularized incomplete beta I_x(a, b) via continued fraction. */
  def regIncompleteBeta(x: Double, a: Double, b: Double): Double = {
    require(x >= 0 && x <= 1, s"x out of range: $x")
    if (x == 0.0) return 0.0
    if (x == 1.0) return 1.0
    val lbeta = logGamma(a) + logGamma(b) - logGamma(a + b)
    val front = math.exp(a * math.log(x) + b * math.log(1 - x) - lbeta)
    // the continued fraction converges fast only below the pivot; above it,
    // evaluate the mirrored fraction directly (no recursion — the pivot
    // itself would otherwise bounce between the two branches forever)
    if (x < (a + 1) / (a + b + 2)) front * betaCf(x, a, b) / a
    else 1.0 - front * betaCf(1.0 - x, b, a) / b
  }

  /** Continued fraction for the incomplete beta (modified Lentz). */
  private def betaCf(x: Double, a: Double, b: Double): Double = {
    val eps = 1e-14
    val tiny = 1e-300
    var c = 1.0
    var d = 1.0 - (a + b) * x / (a + 1)
    if (math.abs(d) < tiny) d = tiny
    d = 1.0 / d
    var h = d
    var m = 1
    while (m <= 300) {
      val m2 = 2 * m
      // even step
      var aa = m * (b - m) * x / ((a + m2 - 1) * (a + m2))
      d = 1.0 + aa * d; if (math.abs(d) < tiny) d = tiny
      c = 1.0 + aa / c; if (math.abs(c) < tiny) c = tiny
      d = 1.0 / d
      h *= d * c
      // odd step
      aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1))
      d = 1.0 + aa * d; if (math.abs(d) < tiny) d = tiny
      c = 1.0 + aa / c; if (math.abs(c) < tiny) c = tiny
      d = 1.0 / d
      val del = d * c
      h *= del
      if (math.abs(del - 1.0) < eps) return h
      m += 1
    }
    h
  }

  /** CDF of Student's t with `df` degrees of freedom. */
  def tCdf(t: Double, df: Double): Double = {
    require(df > 0, s"df must be > 0, got $df")
    val x = df / (df + t * t)
    val p = 0.5 * regIncompleteBeta(x, df / 2.0, 0.5)
    if (t > 0) 1.0 - p else p
  }

  /** Two-sided p-value of a one-sample t-test of `sample` against mean `mu0`.
    * Returns 1.0 when the sample is too small or degenerate to test. */
  def oneSamplePValue(sample: IndexedSeq[Double], mu0: Double): Double =
    pValue(summarize(sample), mu0)

  /** Two-sided p-value of a one-sample t-test against mean `mu0`, from the
    * sample's size, mean and standard deviation. */
  def pValue(s: Summary, mu0: Double): Double = {
    val Summary(n, mean, sd) = s
    if (n < 2) return 1.0
    if (sd < 1e-300) return if (mean == mu0) 1.0 else 0.0
    val t = (mean - mu0) / (sd / math.sqrt(n.toDouble))
    2.0 * (1.0 - tCdf(math.abs(t), n - 1.0))
  }

  final case class Summary(n: Int, mean: Double, stdDev: Double)

  /** A [[Summary]] kept up to date one value at a time, in O(1) per value
    * (Welford's running mean and sum of squared deviations). */
  final class Running {
    private var n = 0
    private var mean = 0.0
    private var m2 = 0.0

    def add(x: Double): Unit = {
      n += 1
      val d = x - mean
      mean += d / n
      m2 += d * (x - mean)
    }

    def summary: Summary = Summary(n, mean, if (n < 2) 0.0 else math.sqrt(m2 / (n - 1)))
  }

  def summarize(sample: IndexedSeq[Double]): Summary = {
    val n = sample.length
    val mean = if (n == 0) 0.0 else sample.sum / n
    val sd =
      if (n < 2) 0.0
      else math.sqrt(sample.map(v => { val d = v - mean; d * d }).sum / (n - 1))
    Summary(n, mean, sd)
  }
}
