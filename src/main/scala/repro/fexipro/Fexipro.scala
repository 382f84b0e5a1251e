package repro.fexipro

import repro.core.{Matrix, MipsSolver, PreparedMips, TopK, TopKHeap, TopKResult}
import repro.linalg.Svd

/** FEXIPRO — the SIGMOD 2017 baseline (Li et al.), point-query oriented.
  *
  * Faithful-in-structure reimplementation of the two variants the paper
  * benchmarks:
  *
  *  - '''S''' (SVD transform): both user and item vectors are rotated into
  *    the right-singular-vector basis of the item matrix. The rotation is
  *    orthonormal, so inner products are preserved exactly, but vector
  *    energy concentrates in the leading coordinates; a partial inner
  *    product over the first h coordinates plus a Cauchy–Schwarz bound on
  *    the suffix (from precomputed suffix norms) prunes most items early.
  *  - '''I''' (integer quantization): the prefix partial product is first
  *    evaluated on per-vector scaled integer copies; a conservative
  *    rounding-error term keeps the resulting upper bound exact, and only
  *    survivors fall through to the exact double prefix.
  *  - '''R''' (reduction / non-negativity, SIR only): items are shifted per
  *    dimension by the item-matrix minimum so every item coordinate is
  *    non-negative. The shift adds a per-user constant (u . m) to every
  *    score, so per-user ordering is unchanged; scores are de-shifted on
  *    output. Following the paper's measurements, the extra transform makes
  *    the SIR bounds looser than SI on most models (see DESIGN.md §5 for
  *    the substitution note).
  *
  * Unlike LEMP and RECDEX, items are scanned in norm-descending order but
  * WITHOUT user batching — FEXIPRO is optimized for the point setting, which
  * is exactly why the paper finds it slower in batch workloads.
  */
final class Fexipro(val useReduction: Boolean) extends MipsSolver {
  override def name: String = if (useReduction) "FEXIPRO-SIR" else "FEXIPRO-SI"

  override def prepare(items: Matrix): PreparedMips = {
    val f = items.cols
    val n = items.rows

    // --- R: optional per-dimension non-negative shift of the items ---
    val (workItems, shift) =
      if (!useReduction) (items, null: Array[Double])
      else {
        val mins = new Array[Double](f)
        java.util.Arrays.fill(mins, Double.MaxValue)
        var i = 0
        while (i < n) {
          val off = i * f
          var d = 0
          while (d < f) { val v = items.data(off + d); if (v < mins(d)) mins(d) = v; d += 1 }
          i += 1
        }
        val shifted = items.copy()
        i = 0
        while (i < n) {
          val off = i * f
          var d = 0
          while (d < f) { shifted.data(off + d) -= mins(d); d += 1 }
          i += 1
        }
        (shifted, mins)
      }

    // --- S: rotate into the SVD basis of the (possibly shifted) items ---
    // For SIR the shifted items are NOT rotated (the shift destroys the
    // rotation's energy concentration anyway — this is what makes SIR's
    // bounds looser, matching the paper's relative performance).
    val (txItems, svd) =
      if (useReduction) (workItems, null: Svd.ThinSvd)
      else {
        val s = Svd.ofGram(workItems)
        (s.rotateRows(workItems), s)
      }

    // sort by norm descending for incremental length pruning
    val norms = txItems.rowNorms
    val order = TopK.descendingOrder(norms)
    val sorted = txItems.selectRows(order)
    val sortedNorms = order.map(norms)

    // the bounded prefix: the first quarter of the (rotated) dimensions
    val h = math.max(1, f / 4)

    // suffix norms past the prefix: ||i[h..f)||
    val suffixNorm = new Array[Double](n)
    // integer-quantized prefix copies with per-vector scale
    val intMax = (1 << 15) - 1 // 15-bit quantization
    val qPrefix = new Array[Array[Int]](n)
    val qScale = new Array[Double](n)
    val l1Prefix = new Array[Double](n)
    var i = 0
    while (i < n) {
      val off = i * f
      var s = 0.0
      var p = h
      while (p < f) { val v = sorted.data(off + p); s += v * v; p += 1 }
      suffixNorm(i) = math.sqrt(s)
      var maxAbs = 0.0
      var l1 = 0.0
      p = 0
      while (p < h) {
        val v = math.abs(sorted.data(off + p))
        if (v > maxAbs) maxAbs = v
        l1 += v
        p += 1
      }
      l1Prefix(i) = l1
      val scale = if (maxAbs > 0) intMax / maxAbs else 1.0
      qScale(i) = scale
      val q = new Array[Int](h)
      p = 0
      while (p < h) { q(p) = math.round(sorted.data(off + p) * scale).toInt; p += 1 }
      qPrefix(i) = q
      i += 1
    }

    new FexiproPrepared(sorted, sortedNorms, suffixNorm, qPrefix, qScale,
      l1Prefix, order, h, svd, shift, intMax)
  }
}

final class FexiproPrepared(
    sorted: Matrix,
    sortedNorms: Array[Double],
    suffixNorm: Array[Double],
    qPrefix: Array[Array[Int]],
    qScale: Array[Double],
    l1Prefix: Array[Double],
    originalIds: Array[Int],
    h: Int,
    svd: Svd.ThinSvd,
    shift: Array[Double], // non-null iff reduction enabled
    intMax: Int,
) extends PreparedMips {

  override def query(user: Array[Double], userId: Int, k: Int): TopKResult = {
    val f = sorted.cols
    val n = sorted.rows

    // transform the user the same way the items were transformed
    val u =
      if (svd != null) svd.rotate(user)
      else user

    var uNormSq = 0.0
    var p = 0
    while (p < f) { uNormSq += u(p) * u(p); p += 1 }
    val uNorm = math.sqrt(uNormSq)
    var uSufSq = 0.0
    p = h
    while (p < f) { uSufSq += u(p) * u(p); p += 1 }
    val uSuffixNorm = math.sqrt(uSufSq)

    // quantized user prefix (per-user scale)
    var uMaxAbs = 0.0
    var uL1 = 0.0
    p = 0
    while (p < h) {
      val v = math.abs(u(p))
      if (v > uMaxAbs) uMaxAbs = v
      uL1 += v
      p += 1
    }
    val uScale = if (uMaxAbs > 0) intMax / uMaxAbs else 1.0
    val uq = new Array[Long](h)
    p = 0
    while (p < h) { uq(p) = math.round(u(p) * uScale); p += 1 }

    // the score we rank by; for SIR the true score needs the de-shift
    // constant u . shift added back (same for every item → order preserved)
    val shiftDot =
      if (shift == null) 0.0
      else {
        var s = 0.0
        var d = 0
        while (d < f) { s += user(d) * shift(d); d += 1 }
        s
      }

    val heap = new TopKHeap(k)
    var i = 0
    var done = false
    while (i < n && !done) {
      val thr = if (heap.isFull) heap.minScore - shiftDot else Double.NegativeInfinity
      // norm-order length pruning: all remaining items have smaller norms
      if (heap.isFull && uNorm * sortedNorms(i) < thr) {
        done = true
      } else {
        val off = i * f
        // --- integer phase: quantized prefix product + conservative error ---
        var acc = 0L
        val q = qPrefix(i)
        p = 0
        while (p < h) { acc += uq(p) * q(p); p += 1 }
        val scaleProd = uScale * qScale(i)
        // |u.i_prefix - acc/scaleProd| <= 0.5/uScale * l1(i) + 0.5/qScale * l1(u) + h*0.25/scaleProd
        val qErr = 0.5 * l1Prefix(i) / uScale + 0.5 * uL1 / qScale(i) + 0.25 * h / scaleProd
        val intBound = acc.toDouble / scaleProd + qErr + uSuffixNorm * suffixNorm(i)
        if (!(heap.isFull && intBound < thr)) {
          // --- exact prefix + Cauchy–Schwarz suffix bound ---
          var s = 0.0
          p = 0
          while (p < h) { s += u(p) * sorted.data(off + p); p += 1 }
          val csBound = s + uSuffixNorm * suffixNorm(i)
          if (!(heap.isFull && csBound < thr)) {
            // --- exact remainder ---
            p = h
            while (p < f) { s += u(p) * sorted.data(off + p); p += 1 }
            heap.offer(s + shiftDot, originalIds(i))
          }
        }
        i += 1
      }
    }
    heap.result()
  }
}
