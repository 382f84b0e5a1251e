package repro.perfbench

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.DataFrame
import repro.core.{BruteForceMM, Matrix, TopKResult}

/** The expected top-K of every user, flattened row-major: entry `u * k + r`
  * is user u's rank r+1 (user and item ids are row indices). */
final class Reference(val users: Int, val k: Int, val ids: Array[Int],
                      val scores: Array[Double]) extends Serializable

object Reference {
  /** Local `BruteForceMM` top-K for every user — the benchmark's reference. */
  def compute(users: Matrix, items: Matrix, k: Int): Reference = {
    val res = new BruteForceMM().prepare(items).queryBatch(users, k)
    val kk = math.min(k, items.rows)
    val ids = new Array[Int](users.rows * kk)
    val scores = new Array[Double](users.rows * kk)
    var u = 0
    while (u < res.length) {
      System.arraycopy(res(u).ids, 0, ids, u * kk, kk)
      System.arraycopy(res(u).scores, 0, scores, u * kk, kk)
      u += 1
    }
    new Reference(users.rows, kk, ids, scores)
  }

  /** Re-derives `probes` users' top-K with scalar dot products and a full
    * sort, so the reference itself is checked. Returns the users that differ. */
  def selfCheck(ref: Reference, users: Matrix, items: Matrix, probes: Int): Seq[Int] = {
    val step = math.max(1, users.rows / probes)
    (0 until users.rows by step).filterNot { u =>
      val row = users.row(u)
      val expected = (0 until items.rows).map(i => (items.rowDot(i, row), i))
        .sortBy { case (s, i) => (-s, i) }.take(ref.k)
      expected.zipWithIndex.forall { case ((s, i), r) =>
        ref.ids(u * ref.k + r) == i && Check.sameScore(ref.scores(u * ref.k + r), s)
      }
    }
  }
}

/** Outcome of checking one served result against the reference. */
final case class CheckOutcome(rows: Long, wrongUsers: Int)

/** Row-for-row check of a `SparkMips` output DataFrame, run on the executors
  * as the action that materializes every output row.
  *
  * A user is wrong unless it has exactly one row per rank 1..K, each with the
  * reference item id, and a score within 1e-9 relative of the reference. */
object Check {
  val RelTol = 1e-9

  def sameScore(got: Double, want: Double): Boolean =
    math.abs(got - want) <= RelTol * math.max(math.abs(want), Double.MinPositiveValue)

  /** Per-partition tally: which (user, rank) slots were filled, and which
    * users had a wrong row. */
  private final class Tally(val slots: java.util.BitSet, val dupSlots: java.util.BitSet,
                            val wrong: java.util.BitSet, var rows: Long) extends Serializable {
    def merge(o: Tally): Tally = {
      val both = slots.clone().asInstanceOf[java.util.BitSet]
      both.and(o.slots)
      dupSlots.or(both); dupSlots.or(o.dupSlots)
      slots.or(o.slots)
      wrong.or(o.wrong)
      rows += o.rows
      this
    }
  }

  def run(df: DataFrame, ref: Broadcast[Reference]): CheckOutcome = {
    val rdd = df.asInstanceOf[org.apache.spark.sql.classic.Dataset[_]].queryExecution.toRdd
    val tally = rdd.mapPartitions { it =>
      val r = ref.value
      val t = new Tally(new java.util.BitSet(r.users * r.k), new java.util.BitSet(),
        new java.util.BitSet(r.users), 0L)
      it.foreach { row =>
        // OutputSchema: user_id, item_id, rank, score
        val u = row.getLong(0); val item = row.getLong(1)
        val rank = row.getInt(2); val score = row.getDouble(3)
        t.rows += 1
        if (u < 0 || u >= r.users) t.wrong.set(0, r.users) // unknown user: fail all
        else if (rank < 1 || rank > r.k) t.wrong.set(u.toInt)
        else {
          val slot = u.toInt * r.k + rank - 1
          if (t.slots.get(slot)) t.dupSlots.set(slot) else t.slots.set(slot)
          if (item != r.ids(slot) || !sameScore(score, r.scores(slot))) t.wrong.set(u.toInt)
        }
      }
      Iterator.single(t)
    }.reduce(_ merge _)

    val r = ref.value
    var u = 0
    while (u < r.users) {
      val from = u * r.k
      val missing = tally.slots.nextClearBit(from) < from + r.k
      val dup = { val d = tally.dupSlots.nextSetBit(from); d >= 0 && d < from + r.k }
      if (missing || dup) tally.wrong.set(u)
      u += 1
    }
    CheckOutcome(tally.rows, tally.wrong.cardinality())
  }

  /** Wrong users among local results for the reference's first users. */
  def local(res: Array[TopKResult], ref: Reference): Int =
    res.indices.count { u =>
      val got = res(u)
      got.size != ref.k || (0 until ref.k).exists { r =>
        got.ids(r) != ref.ids(u * ref.k + r) || !sameScore(got.scores(r), ref.scores(u * ref.k + r))
      }
    }
}
