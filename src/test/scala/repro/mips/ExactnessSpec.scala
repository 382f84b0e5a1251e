package repro.mips

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.core.{BruteForceMM, Matrix, MipsSolver, TopKResult}
import repro.fexipro.Fexipro
import repro.lemp.LempIndex
import repro.mf.ModelZoo
import repro.recdex.{Recdex, RecdexPrepared}

/** Every solver must return EXACT top-K results (Theorem 1 for RECDEX; the
  * pruning inequalities for LEMP/FEXIPRO). This suite grinds each solver
  * against the naive reference across model shapes, K values, and both
  * diffuse and concentrated vector distributions — the two regimes the paper
  * shows flip the performance ordering, and exactly where pruning bugs hide.
  */
class ExactnessSpec extends AnyFunSuite with PropSupport {
  import SolverTestSupport._

  /** Tolerance that demands brute force's ids and score bits exactly. */
  private val Identical = 0.0

  private def solvers: Seq[(String, MipsSolver, Double)] = Seq(
    // (label, solver, score tolerance) — SVD-rotating solvers accumulate
    // ~1e-12-scale rotation error, so they get a looser tolerance; MM, LEMP
    // and RECDEX add every score in brute force's order, so they get none.
    ("MM",             new BruteForceMM(), Identical),
    ("LEMP",           new LempIndex(prefixStep = 4), Identical),
    ("LEMP-step16",    new LempIndex(prefixStep = 16), Identical),
    ("FEXIPRO-SI",     new Fexipro(useReduction = false), 1e-7),
    ("FEXIPRO-SIR",    new Fexipro(useReduction = true), 1e-7),
    ("RECDEX",         new Recdex(numClusters = 4, blockSize = 16), Identical),
    ("RECDEX-noblock", new Recdex(numClusters = 4, blockSize = 0), Identical),
    ("RECDEX-C1",      new Recdex(numClusters = 1, blockSize = 8), Identical),
  )

  private val configs = Seq(
    // (nUsers, nItems, f, k, concentrated)
    (40, 30, 4, 1, false),
    (40, 30, 4, 5, false),
    (60, 50, 8, 3, true),
    (80, 100, 16, 10, false),
    (80, 100, 16, 10, true),
    (30, 25, 25, 25, false), // k == nItems: must return everything
    (50, 60, 32, 1, true),
    (120, 80, 10, 50, false),
  )

  for {
    (label, solver, tol) <- solvers
    (nu, ni, f, k, conc) <- configs
  } test(s"$label exact on users=$nu items=$ni f=$f k=$k concentrated=$conc") {
    val (users, items) = ModelZoo.tiny(nu, ni, f, seed = nu * 7L + ni * 3L + k, concentrated = conc)
    val expect = bruteForce(users, items, k)
    val got = solver.prepare(items).queryBatch(users, k)
    check(got, expect, tol, s"$label/$nu/$ni/$f/$k")
  }

  for ((label, solver, tol) <- solvers)
    test(s"$label point query equals batch row (users=25 items=40 f=8 k=4)") {
      val (users, items) = ModelZoo.tiny(25, 40, 8, seed = 17)
      val prepared = solver.prepare(items)
      val expect = bruteForce(users, items, 4)
      (0 until users.rows by 5).foreach { u =>
        val got = prepared.query(users.row(u), u, 4)
        check(Array(got), Array(expect(u)), tol, s"$label point u=$u")
      }
    }

  test("k larger than item count returns all items") {
    val (users, items) = ModelZoo.tiny(10, 6, 4, seed = 23)
    solvers.foreach { case (label, solver, tol) =>
      val got = solver.prepare(items).queryBatch(users, 6)
      val expect = bruteForce(users, items, 6)
      check(got, expect, tol, s"$label k=|I|")
    }
  }

  test("single user, single item") {
    val users = Matrix.fromRows(Seq(Array(1.0, -2.0)))
    val items = Matrix.fromRows(Seq(Array(3.0, 0.5)))
    solvers.foreach { case (label, solver, _) =>
      val r = solver.prepare(items).queryBatch(users, 1)
      assert(r(0).ids.toSeq == Seq(0), label)
      assert(math.abs(r(0).scores(0) - 2.0) < 1e-9, label)
    }
  }

  test("items with zero vectors do not break pruning") {
    val users = Matrix.randn(20, 6, seed = 31)
    val itemRows = (0 until 30).map { i =>
      if (i % 7 == 0) new Array[Double](6) else Matrix.randn(1, 6, seed = 100 + i).row(0)
    }
    val items = Matrix.fromRows(itemRows)
    val expect = bruteForce(users, items, 5)
    solvers.foreach { case (label, solver, tol) =>
      check(solver.prepare(items).queryBatch(users, 5), expect, tol, label)
    }
  }

  test("negative-dominated vectors (exercises FEXIPRO's reduction path)") {
    val users = Matrix.tabulate(15, 5)((r, c) => -1.0 - 0.1 * r - 0.05 * c)
    val items = Matrix.tabulate(25, 5)((r, c) => -0.5 - 0.07 * ((r + c) % 9))
    val expect = bruteForce(users, items, 3)
    solvers.foreach { case (label, solver, tol) =>
      check(solver.prepare(items).queryBatch(users, 3), expect, tol, label)
    }
  }

  test("one MM or RECDEX binding served from two threads at once returns brute force's ids " +
      "and score bits") {
    val (users, items) = ModelZoo.tiny(300, 200, 12, seed = 41, concentrated = true)
    val expect = bruteForce(users, items, 7)
    // the two threads ask for the rows in opposite orders
    val orders = Seq(Array.range(0, users.rows), Array.range(0, users.rows).reverse)
    for (solver <- Seq(new BruteForceMM(), new Recdex(numClusters = 4, blockSize = 16))) {
      val serve = solver.prepare(items).bind(users, 7)
      val start = new java.util.concurrent.CountDownLatch(1)
      val served = orders.map(_ => new java.util.concurrent.ConcurrentLinkedQueue[Array[TopKResult]]())
      val failures = new java.util.concurrent.ConcurrentLinkedQueue[Throwable]()
      val threads = orders.indices.map { t =>
        new Thread(() =>
          try { start.await(); (0 until 20).foreach(_ => served(t).add(serve(orders(t)))) }
          catch { case e: Throwable => failures.add(e) })
      }
      threads.foreach(_.start())
      start.countDown()
      threads.foreach(_.join())
      assert(failures.isEmpty, s"${solver.name}: $failures")
      for (t <- orders.indices) {
        assert(served(t).size == 20, solver.name)
        served(t).forEach(got => assertIdentical(got, orders(t).map(expect), s"${solver.name} thread $t"))
      }
    }
  }

  for ((label, construct, message) <- Seq[(String, () => MipsSolver, String)](
      ("LEMP with prefixStep = -2", () => new LempIndex(prefixStep = -2), "prefixStep must be >= 1, got -2"),
      ("LEMP with prefixStep = 0", () => new LempIndex(prefixStep = 0), "prefixStep must be >= 1, got 0"),
      ("RECDEX with numClusters = 0", () => new Recdex(numClusters = 0), "numClusters must be >= 1, got 0"),
      ("RECDEX with blockSize = -5", () => new Recdex(blockSize = -5), "blockSize must be >= 0, got -5")))
    test(s"$label is rejected when constructed") {
      val e = intercept[IllegalArgumentException](construct())
      assert(e.getMessage.contains(message), e.getMessage)
    }

  checkProp("property: MM exact on random shapes", minTests = 30) {
    exactProp(new BruteForceMM(), Identical)
  }

  checkProp("property: LEMP exact on random shapes", minTests = 30) {
    exactProp(new LempIndex(prefixStep = 4), Identical)
  }

  checkProp("property: FEXIPRO-SI exact on random shapes", minTests = 25) {
    exactProp(new Fexipro(useReduction = false), 1e-7)
  }

  checkProp("property: FEXIPRO-SIR exact on random shapes", minTests = 25) {
    exactProp(new Fexipro(useReduction = true), 1e-7)
  }

  checkProp("property: RECDEX exact on random shapes", minTests = 30) {
    exactProp(new Recdex(numClusters = 3, blockSize = 8), Identical)
  }

  /** Integer coordinates in [-3, 3] make many exact score ties, so the ids
    * must follow the (score desc, id asc) order row for row. Draws up to 30
    * users, `maxItems` items, f ≤ 8 and k ≤ 31 (at most |I| + 1) and asks
    * `agrees(users, items, k, expect, rng)` whether the strategies under
    * test return brute force's `expect` exactly; `rng` is seeded per model. */
  private def tieHeavy(maxItems: Int)(
      agrees: (Matrix, Matrix, Int, Array[TopKResult], scala.util.Random) => Boolean): Prop =
    Prop.forAll(Gen.choose(1, 30), Gen.choose(1, maxItems), Gen.choose(1, 8),
      Gen.choose(1, 31), Gen.choose(0L, 5000L)) { (nu, ni, f, k0, seed) =>
      val k = math.min(k0, ni + 1)
      val rng = new scala.util.Random(seed)
      val users = Matrix.tabulate(nu, f)((_, _) => rng.nextInt(7) - 3.0)
      val items = Matrix.tabulate(ni, f)((_, _) => rng.nextInt(7) - 3.0)
      agrees(users, items, k, bruteForce(users, items, k), rng)
    }

  /** `assertIdentical` as a property outcome: false, with the message
    * printed, where it fails. */
  private def identical(got: => Array[TopKResult], expect: Array[TopKResult], context: String): Boolean =
    try { assertIdentical(got, expect, context); true }
    catch { case e: Throwable => println(e.getMessage); false }

  checkProp("property: MM and RECDEX with a full head return brute force's ids and score bits " +
      "on tie-heavy integer models", minTests = 40) {
    tieHeavy(30) { (users, items, k, expect, rng) =>
      Seq(new BruteForceMM(), new Recdex(numClusters = 3, blockSize = items.rows + rng.nextInt(3)))
        .forall(solver => identical(solver.prepare(items).queryBatch(users, k), expect, solver.name))
    }
  }

  checkProp("property: RECDEX at B = 0 and at a random B < |I|, blocked and unblocked, returns " +
      "brute force's ids and score bits on tie-heavy integer models", minTests = 150) {
    tieHeavy(300) { (users, items, k, expect, rng) =>
      Seq(0, rng.nextInt(items.rows)).forall { b =>
        val idx = new Recdex(numClusters = 3, blockSize = b).prepare(items)
          .asInstanceOf[RecdexPrepared].buildUserIndexImpl(users)
        Seq(true, false).forall(blocked =>
          identical(idx.queryAllLesion(k, blocked), expect, s"B=$b blocked=$blocked"))
      }
    }
  }

  // small prefix steps, so both prune checks run often
  checkProp("property: LEMP returns brute force's ids and score bits on tie-heavy integer models",
      minTests = 300) {
    tieHeavy(300) { (users, items, k, expect, rng) =>
      val lemp = new LempIndex(prefixStep = 1 + rng.nextInt(3))
      identical(lemp.prepare(items).queryBatch(users, k), expect, s"LEMP step=${lemp.prefixStep}")
    }
  }

  /** `assertIdentical` at tolerance [[Identical]], else `assertSame`. */
  private def check(got: Array[TopKResult], expect: Array[TopKResult], tol: Double,
                    context: String): Unit =
    if (tol == Identical) assertIdentical(got, expect, context)
    else assertSame(got, expect, tol, context)

  /** `solver`'s batch query agrees with brute force within `tol`, and its
    * binding to the users serves the empty subset and a shuffled random
    * subset of rows with the batch query's ids and score bits at those rows.
    * A user matrix with no rows gets no results, from the batch query and
    * from a binding to it. */
  private def exactProp(solver: MipsSolver, tol: Double): Prop =
    Prop.forAll(Gen.choose(2, 40), Gen.choose(2, 40), Gen.choose(2, 12),
      Gen.choose(1, 8), Gen.choose(0L, 5000L)) { (nu, ni, f, k0, seed) =>
      val k = math.min(k0, ni)
      val users = Matrix.randn(nu, f, seed)
      val items = Matrix.randn(ni, f, seed + 1)
      val expect = bruteForce(users, items, k)
      val prepared = solver.prepare(items)
      val got = prepared.queryBatch(users, k)
      val rng = new scala.util.Random(seed)
      val subset = rng.shuffle((0 until nu).toVector).take(rng.nextInt(nu + 1)).toArray
      val serve = prepared.bind(users, k)
      val noUsers = users.sliceRows(0, 0)
      try {
        check(got, expect, tol, solver.name)
        for (rows <- Seq(Array.empty[Int], subset))
          assertIdentical(serve(rows), rows.map(got), s"${solver.name} bind rows ${rows.toSeq}")
        assert(prepared.queryBatch(noUsers, k).isEmpty, s"${solver.name}: results for no users")
        assert(prepared.bind(noUsers, k)(Array.empty).isEmpty, s"${solver.name}: bound to no users")
        true
      } catch { case e: Throwable => println(e.getMessage); false }
    }
}
