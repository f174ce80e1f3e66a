//! The benchmark corpus: every worked example of the paper, the CHOLSKY
//! NAS kernel of Figure 2, and a set of kernels in the families the
//! original `tiny` distribution shipped (Cholesky, LU, wavefronts, plus
//! contrived examples), used to regenerate the timing figures.

/// A named source program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Short name (used in reports).
    pub name: &'static str,
    /// Program source text.
    pub source: &'static str,
}

/// Example 1 — killed flow dependence: the write `a(L1)` kills the flow
/// from `a(n)` to the read.
pub const EXAMPLE_1: &str = "
    sym n;
    a(n) := 0;
    for L1 := n to n+10 do
      a(L1) := 1;
    endfor
    for L1 := n to n+20 do
      x := a(L1);
    endfor
";

/// Example 1 variant — first write to `a(m)`: the kill cannot be verified
/// without the assertion `n <= m <= n+10`.
pub const EXAMPLE_1_M: &str = "
    sym n, m;
    a(m) := 0;
    for L1 := n to n+10 do
      a(L1) := 1;
    endfor
    for L1 := n to n+20 do
      x := a(L1);
    endfor
";

/// Example 1 variant with the assertion added: the kill is restored.
pub const EXAMPLE_1_M_ASSERTED: &str = "
    sym n, m;
    assume n <= m <= n+10;
    a(m) := 0;
    for L1 := n to n+10 do
      a(L1) := 1;
    endfor
    for L1 := n to n+20 do
      x := a(L1);
    endfor
";

/// Example 2 — covering and killed dependences: the read of `a(L2)` is
/// covered by the write to `a(L2-1)`.
pub const EXAMPLE_2: &str = "
    sym n, m;
    a(m) := 0;
    for L1 := 1 to 100 do
      a(L1) := 1;
      for L2 := 1 to n do
        a(L2) := 2;
        a(L2-1) := 3;
      endfor
      for L2 := 2 to n-1 do
        x := a(L2);
      endfor
    endfor
";

/// Example 3 — refinement from `(0+,1)` to `(0,1)`.
pub const EXAMPLE_3: &str = "
    sym n, m;
    for L1 := 1 to n do
      for L2 := 2 to m do
        a(L2) := a(L2-1);
      endfor
    endfor
";

/// Example 4 — trapezoidal refinement: same refinement in a non-
/// rectangular nest.
pub const EXAMPLE_4: &str = "
    sym n, m;
    for L1 := 1 to n do
      for L2 := n+2-L1 to m do
        a(L2) := a(L2-1);
      endfor
    endfor
";

/// Example 5 — partial refinement: only `(0:1,1)` is possible because
/// iterations with `1 < L1 = L2` receive their flow from `(L1-1, L2-1)`.
pub const EXAMPLE_5: &str = "
    sym n, m;
    for L1 := 1 to n do
      for L2 := L1 to m do
        a(L2) := a(L2-1);
      endfor
    endfor
";

/// Example 6 — coupled refinement: distances `(α,α), α ≥ 1` refine to
/// `(1,1)`.
pub const EXAMPLE_6: &str = "
    sym n, m;
    for L1 := 1 to n do
      for L2 := 2 to m do
        a(L1-L2) := a(L1-L2);
      endfor
    endfor
";

/// Example 7 — symbolic dependence analysis: the flow dependence exists
/// iff `2x <= n ∧ 1 <= y <= m ∧ (x > 0 ∨ (x = 0 ∧ y < m))`.
pub const EXAMPLE_7: &str = "
    sym x, y, n, m;
    real A[1:n, 1:m], C[1:n, 1:m];
    for L1 := x to n do
      for L2 := 1 to m do
        A[L1, L2] := A[L1-x, y] + C[L1, L2];
      endfor
    endfor
";

/// Example 8 — index arrays: queries about `Q[a] = Q[b]`.
pub const EXAMPLE_8: &str = "
    sym n;
    real A[1:n], C[1:n];
    int Q[1:n];
    for L1 := 1 to n do
      A[Q[L1]] := A[Q[L1+1]-1] + C[L1];
    endfor
";

/// Example 9 — array values in loop bounds.
pub const EXAMPLE_9: &str = "
    sym maxb;
    int B[1:maxb];
    for i := 1 to maxb do
      for j := B[i] to B[i+1]-1 do
        A[i, j] := i + j;
      endfor
    endfor
";

/// Example 10 — non-linear subscripts (`i*j`), treated as an
/// uninterpreted term.
pub const EXAMPLE_10: &str = "
    sym n;
    for i := 1 to n do
      for j := i to n do
        A[i*j] := i + j;
      endfor
    endfor
";

/// Example 11 — from program `s141` of Levine, Callahan & Dongarra:
/// induction scalar `k` drives the subscript.
pub const EXAMPLE_11: &str = "
    sym n;
    for i := 1 to n do
      for j := i to n do
        a(k) := a(k) + bb(i, j);
        k := k + j;
      endfor
    endfor
";

/// CHOLSKY from the original NASA NAS kernels (Figure 2), with the
/// forward-substituted `MAX(-M,-J)` and the normalized second `K` loop, as
/// the paper's authors prepared it. Statement labels 1–9 match the DO-loop
/// labels of the Fortran source and the rows of Figures 3 and 4.
pub const CHOLSKY: &str = "
    sym ida, nmat, m, n, nrhs, idb, eps;

    // Cholesky decomposition ------------------------------------
    for J := 0 to n do
      // off-diagonal elements
      for I := max(-m, -J) to -1 do
        for JJ := max(-m, -J) - I to -1 do
          for L := 0 to nmat do
            a(L, I, J) := a(L, I, J) - a(L, JJ, I+J) * a(L, I+JJ, J);    -- stmt 1 = label 3
          endfor
        endfor
        for L := 0 to nmat do
          a(L, I, J) := a(L, I, J) * a(L, 0, I+J);                       -- stmt 2 = label 2
        endfor
      endfor
      // store inverse of diagonal elements
      for L := 0 to nmat do
        epss(L) := eps * a(L, 0, J);                                     -- stmt 3 = label 4
      endfor
      for JJ := max(-m, -J) to -1 do
        for L := 0 to nmat do
          a(L, 0, J) := a(L, 0, J) - a(L, JJ, J) * a(L, JJ, J);          -- stmt 4 = label 5
        endfor
      endfor
      for L := 0 to nmat do
        a(L, 0, J) := 1 / sqrt(abs(epss(L) + a(L, 0, J)));               -- stmt 5 = label 1
      endfor
    endfor

    // solution ---------------------------------------------------
    for I := 0 to nrhs do
      for K := 0 to n do
        for L := 0 to nmat do
          b(I, L, K) := b(I, L, K) * a(L, 0, K);                         -- stmt 6 = label 8
        endfor
        for JJ := 1 to min(m, n-K) do
          for L := 0 to nmat do
            b(I, L, K+JJ) := b(I, L, K+JJ) - a(L, -JJ, K+JJ) * b(I, L, K);  -- stmt 7 = label 7
          endfor
        endfor
      endfor
      for K := 0 to n do
        for L := 0 to nmat do
          b(I, L, n-K) := b(I, L, n-K) * a(L, 0, n-K);                   -- stmt 8 = label 9
        endfor
        for JJ := 1 to min(m, n-K) do
          for L := 0 to nmat do
            b(I, L, n-K-JJ) := b(I, L, n-K-JJ) - a(L, -JJ, n-K) * b(I, L, n-K);  -- stmt 9 = label 6
          endfor
        endfor
      endfor
    endfor
";

/// Maps our source-order statement labels (1–9 as parsed) to the Fortran
/// DO-label numbering the paper's Figures 3 and 4 use.
pub const CHOLSKY_PAPER_LABELS: [usize; 10] = [0, 3, 2, 4, 5, 1, 8, 7, 9, 6];

/// CHOLSKY in its original fixed-form FORTRAN (Figure 2 of the paper,
/// with the authors' preprocessing applied: `MAX(-M,-J)` forward
/// substituted and the second `K` loop normalized). Parsed by
/// [`crate::fortran::parse`]; equivalent to [`CHOLSKY`].
pub const CHOLSKY_F77: &str = "\
      SUBROUTINE CHOLSKY (IDA, NMAT, M, N, A, NRHS, IDB, B)
C
C   CHOLESKY DECOMPOSITION/SUBSTITUTION SUBROUTINE.
C   11/28/84  D H BAILEY  MODIFIED FOR NAS KERNEL TEST
C    1/28/92  W W PUGH    PERFORMED FORWARD SUB. AND
C                         NORMALIZED LOOP THAT HAD STEP OF -1
C
      REAL A(0:IDA, -M:0, 0:N), B(0:NRHS, 0:IDB, 0:N), EPSS(0:256)
      DATA EPS/1E-13/
C
C   CHOLESKY DECOMPOSITION
C
      DO 1 J = 0, N
C
C   OFF DIAGONAL ELEMENTS
C
        DO 2 I = MAX(-M,-J), -1
          DO 3 JJ = MAX(-M,-J) - I, -1
            DO 3 L = 0, NMAT
    3         A(L,I,J) = A(L,I,J) - A(L,JJ,I+J) * A(L,I+JJ,J)
          DO 2 L = 0, NMAT
    2       A(L,I,J) = A(L,I,J) * A(L,0,I+J)
C
C   STORE INVERSE OF DIAGONAL ELEMENTS
C
        DO 4 L = 0, NMAT
    4     EPSS(L) = EPS * A(L,0,J)
        DO 5 JJ = MAX(-M,-J), -1
          DO 5 L = 0, NMAT
    5       A(L,0,J) = A(L,0,J) - A(L,JJ,J) ** 2
        DO 1 L = 0, NMAT
    1     A(L,0,J) = 1. / SQRT ( ABS (EPSS(L) + A(L,0,J)) )
C
C   SOLUTION
C
      DO 6 I = 0, NRHS
        DO 7 K = 0, N
          DO 8 L = 0, NMAT
    8       B(I,L,K) = B(I,L,K) * A(L,0,K)
          DO 7 JJ = 1, MIN (M, N-K)
            DO 7 L = 0, NMAT
    7         B(I,L,K+JJ) = B(I,L,K+JJ) - A(L,-JJ,K+JJ) * B(I,L,K)
        DO 6 K = 0, N
          DO 9 L = 0, NMAT
    9       B(I,L,N-K) = B(I,L,N-K) * A(L,0,N-K)
          DO 6 JJ = 1, MIN (M, N-K)
            DO 6 L = 0, NMAT
    6         B(I,L,N-K-JJ) = B(I,L,N-K-JJ) - A(L,-JJ,N-K) * B(I,L,N-K)
C
      RETURN
      END
";

/// The solution phase of CHOLSKY **before** the authors' normalization:
/// the second `K` loop runs `DO 6 K = N, 0, -1` and the subscripts use
/// `K` directly. `fortran::parse` normalizes it automatically; the result
/// is statement-for-statement identical to [`CHOLSKY_F77`]'s solution
/// phase (verified in `tests/fortran_frontend.rs`).
pub const CHOLSKY_SOLUTION_UNNORMALIZED_F77: &str = "\
      REAL A(0:IDA, -M:0, 0:N), B(0:NRHS, 0:IDB, 0:N)
      DO 6 I = 0, NRHS
        DO 7 K = 0, N
          DO 8 L = 0, NMAT
    8       B(I,L,K) = B(I,L,K) * A(L,0,K)
          DO 7 JJ = 1, MIN (M, N-K)
            DO 7 L = 0, NMAT
    7         B(I,L,K+JJ) = B(I,L,K+JJ) - A(L,-JJ,K+JJ) * B(I,L,K)
        DO 6 K = N, 0, -1
          DO 9 L = 0, NMAT
    9       B(I,L,K) = B(I,L,K) * A(L,0,K)
          DO 6 JJ = 1, MIN (M, K)
            DO 6 L = 0, NMAT
    6         B(I,L,K-JJ) = B(I,L,K-JJ) - A(L,-JJ,K) * B(I,L,K)
";

/// The same solution phase in the normalized form of Figure 2.
pub const CHOLSKY_SOLUTION_NORMALIZED_F77: &str = "\
      REAL A(0:IDA, -M:0, 0:N), B(0:NRHS, 0:IDB, 0:N)
      DO 6 I = 0, NRHS
        DO 7 K = 0, N
          DO 8 L = 0, NMAT
    8       B(I,L,K) = B(I,L,K) * A(L,0,K)
          DO 7 JJ = 1, MIN (M, N-K)
            DO 7 L = 0, NMAT
    7         B(I,L,K+JJ) = B(I,L,K+JJ) - A(L,-JJ,K+JJ) * B(I,L,K)
        DO 6 K = 0, N
          DO 9 L = 0, NMAT
    9       B(I,L,N-K) = B(I,L,N-K) * A(L,0,N-K)
          DO 6 JJ = 1, MIN (M, N-K)
            DO 6 L = 0, NMAT
    6         B(I,L,N-K-JJ) = B(I,L,N-K-JJ) - A(L,-JJ,N-K) * B(I,L,N-K)
";

/// Dense (textbook) Cholesky decomposition, one of the `tiny` example
/// families.
pub const CHOLESKY_DENSE: &str = "
    sym n;
    for k := 1 to n do
      a(k, k) := sqrt(a(k, k));
      for i := k+1 to n do
        a(i, k) := a(i, k) / a(k, k);
      endfor
      for j := k+1 to n do
        for i := j to n do
          a(i, j) := a(i, j) - a(i, k) * a(j, k);
        endfor
      endfor
    endfor
";

/// LU decomposition without pivoting.
pub const LU: &str = "
    sym n;
    for k := 1 to n do
      for i := k+1 to n do
        a(i, k) := a(i, k) / a(k, k);
      endfor
      for i := k+1 to n do
        for j := k+1 to n do
          a(i, j) := a(i, j) - a(i, k) * a(k, j);
        endfor
      endfor
    endfor
";

/// A 2-D wavefront: each element depends on its north and west neighbors.
pub const WAVEFRONT: &str = "
    sym n, m;
    for i := 2 to n do
      for j := 2 to m do
        a(i, j) := a(i-1, j) + a(i, j-1);
      endfor
    endfor
";

/// A skewed wavefront variant with a coupled subscript.
pub const WAVEFRONT_SKEWED: &str = "
    sym n, m;
    for i := 2 to n do
      for j := 2 to m do
        a(i+j) := a(i+j-1) + a(i+j-2);
      endfor
    endfor
";

/// A diagonal wavefront over a triangular region.
pub const WAVEFRONT_TRIANGULAR: &str = "
    sym n;
    for i := 2 to n do
      for j := i to n do
        a(i, j) := a(i-1, j) + a(i, j-1);
      endfor
    endfor
";

/// Matrix multiplication (accumulating inner product).
pub const MATMUL: &str = "
    sym n, m, p;
    for i := 1 to n do
      for j := 1 to m do
        c(i, j) := 0;
        for k := 1 to p do
          c(i, j) := c(i, j) + a(i, k) * b(k, j);
        endfor
      endfor
    endfor
";

/// Jacobi-style two-array stencil sweep.
pub const JACOBI: &str = "
    sym n, t;
    for it := 1 to t do
      for i := 2 to n-1 do
        new(i) := a(i-1) + a(i) + a(i+1);
      endfor
      for i := 2 to n-1 do
        a(i) := new(i);
      endfor
    endfor
";

/// Gauss-Seidel-style in-place stencil sweep.
pub const SEIDEL: &str = "
    sym n, t;
    for it := 1 to t do
      for i := 2 to n-1 do
        a(i) := a(i-1) + a(i) + a(i+1);
      endfor
    endfor
";

/// Tridiagonal solver: forward elimination then back substitution.
pub const TRIDIAG: &str = "
    sym n;
    for i := 2 to n do
      w(i) := c(i-1) / d(i-1);
      d(i) := d(i) - w(i) * c(i-1);
      b(i) := b(i) - w(i) * b(i-1);
    endfor
    x(n) := b(n) / d(n);
    for i := 1 to n-1 do
      x(n-i) := (b(n-i) - c(n-i) * x(n-i+1)) / d(n-i);
    endfor
";

/// Contrived total-kill chain: each write completely overwrites the
/// previous one.
pub const CONTRIVED_KILL_CHAIN: &str = "
    sym n;
    for i := 1 to n do
      a(i) := 0;
    endfor
    for i := 1 to n do
      a(i) := 1;
    endfor
    for i := 1 to n do
      x := a(i);
    endfor
";

/// Contrived partial kill: the second write covers only half the range.
pub const CONTRIVED_PARTIAL_KILL: &str = "
    sym n;
    for i := 1 to 2*n do
      a(i) := 0;
    endfor
    for i := 1 to n do
      a(2*i) := 1;
    endfor
    for i := 1 to 2*n do
      x := a(i);
    endfor
";

/// Contrived coupled-distance example exercising restraint vectors.
pub const CONTRIVED_COUPLED: &str = "
    sym n;
    for i := 1 to n do
      for j := 1 to n do
        a(i+j, i-j) := a(i+j-2, i-j) + 1;
      endfor
    endfor
";

/// Contrived scalar accumulation (self output and flow on a scalar).
pub const CONTRIVED_SCALAR: &str = "
    sym n;
    s := 0;
    for i := 1 to n do
      s := s + a(i);
    endfor
    x := s;
";

/// First-order linear recurrence (from the `tiny` examples).
pub const RECURRENCE: &str = "
    sym n;
    for i := 2 to n do
      a(i) := a(i-1) * b(i) + c(i);
    endfor
";

/// Loop-distributed copy: write then read of disjoint halves.
pub const CONTRIVED_DISJOINT: &str = "
    sym n;
    for i := 1 to n do
      a(i) := b(i);
    endfor
    for i := n+1 to 2*n do
      x := a(i);
    endfor
";

/// Gaussian elimination with explicit back substitution.
pub const GAUSS: &str = "
    sym n;
    for k := 1 to n-1 do
      for i := k+1 to n do
        m(i, k) := a(i, k) / a(k, k);
        for j := k+1 to n do
          a(i, j) := a(i, j) - m(i, k) * a(k, j);
        endfor
        b(i) := b(i) - m(i, k) * b(k);
      endfor
    endfor
    x(n) := b(n) / a(n, n);
    for k := 1 to n-1 do
      s(n-k) := b(n-k);
      for j := n-k+1 to n do
        s(n-k) := s(n-k) - a(n-k, j) * x(j);
      endfor
      x(n-k) := s(n-k) / a(n-k, n-k);
    endfor
";

/// Symmetric rank-1 update (triangular write pattern).
pub const SYR1: &str = "
    sym n;
    for i := 1 to n do
      for j := i to n do
        a(i, j) := a(i, j) + x(i) * x(j);
      endfor
    endfor
";

/// Banded matrix-vector multiply (accumulation with offset subscripts).
pub const BANDED_MV: &str = "
    sym n, w;
    for i := 1 to n do
      y(i) := 0;
      for j := -w to w do
        y(i) := y(i) + a(i, j) * x(i + j);
      endfor
    endfor
";

/// Odd-even transposition sweep (strided writes).
pub const ODD_EVEN: &str = "
    sym n, t;
    for it := 1 to t do
      for i := 1 to n step 2 do
        a(i) := a(i) + a(i + 1);
      endfor
      for i := 2 to n step 2 do
        a(i) := a(i) + a(i + 1);
      endfor
    endfor
";

/// In-place prefix sums (classic linear recurrence).
pub const PREFIX_SUM: &str = "
    sym n;
    for i := 2 to n do
      a(i) := a(i) + a(i - 1);
    endfor
";

/// Array reversal via a temporary (cover + kill opportunities).
pub const REVERSE_COPY: &str = "
    sym n;
    for i := 1 to n do
      t(i) := a(n + 1 - i);
    endfor
    for i := 1 to n do
      a(i) := t(i);
    endfor
    for i := 1 to n do
      x := a(i);
    endfor
";

/// Red-black Gauss-Seidel over a 1-D mesh.
pub const RED_BLACK: &str = "
    sym n, t;
    for it := 1 to t do
      for i := 2 to n-1 step 2 do
        a(i) := a(i-1) + a(i+1);
      endfor
      for i := 3 to n-1 step 2 do
        a(i) := a(i-1) + a(i+1);
      endfor
    endfor
";

/// Two-phase double buffering (total kill each phase).
pub const DOUBLE_BUFFER: &str = "
    sym n, t;
    for it := 1 to t do
      for i := 2 to n-1 do
        b(i) := a(i-1) + a(i+1);
      endfor
      for i := 2 to n-1 do
        a(i) := b(i);
      endfor
    endfor
";

/// Livermore-style inner product plus update.
pub const DOT_AND_AXPY: &str = "
    sym n;
    q := 0;
    for i := 1 to n do
      q := q + x(i) * y(i);
    endfor
    for i := 1 to n do
      z(i) := z(i) + q * x(i);
    endfor
";

/// Boundary initialization then interior sweep (partial covers).
pub const BOUNDARY_INTERIOR: &str = "
    sym n;
    a(1) := 0;
    a(n) := 0;
    for i := 2 to n-1 do
      a(i) := 1;
    endfor
    for i := 1 to n do
      x := a(i);
    endfor
";

/// Diagonal-major traversal of a 2-D array (coupled subscripts).
pub const DIAGONAL_SWEEP: &str = "
    sym n;
    for d := 2 to 2*n do
      for i := max(1, d - n) to min(n, d - 1) do
        a(i, d - i) := a(i - 1, d - i) + a(i, d - i - 1);
      endfor
    endfor
";

/// Strip-mined copy with an offset tail (kill on overlap).
pub const STRIP_MINE: &str = "
    sym n;
    for i := 1 to n do
      a(i) := b(i);
    endfor
    for i := 1 to n/1 do
      a(i) := c(i);
    endfor
    for i := 1 to n do
      x := a(i);
    endfor
";

/// Histogram-style scatter through an index array (§5 material).
pub const HISTOGRAM: &str = "
    sym n, k;
    int idx[1:n];
    for i := 1 to n do
      h(idx(i)) := h(idx(i)) + 1;
    endfor
";

/// Triangular solve (forward substitution, dense).
pub const TRSOLVE: &str = "
    sym n;
    for i := 1 to n do
      x(i) := b(i);
      for j := 1 to i-1 do
        x(i) := x(i) - l(i, j) * x(j);
      endfor
      x(i) := x(i) / l(i, i);
    endfor
";

/// 1-D convolution (reads a window of the input).
pub const CONV1D: &str = "
    sym n, w;
    for i := w+1 to n-w do
      s := 0;
      for k := -w to w do
        s := s + a(i + k) * c(k);
      endfor
      b(i) := s;
    endfor
";

/// Correlation of two signals into a lag array.
pub const CORRELATE: &str = "
    sym n, lags;
    for l := 0 to lags do
      r(l) := 0;
      for i := 1 to n - l do
        r(l) := r(l) + x(i) * x(i + l);
      endfor
    endfor
";

/// BiCG-style double traversal (two outputs from one matrix sweep).
pub const BICG: &str = "
    sym n, m;
    for i := 1 to n do
      q(i) := 0;
    endfor
    for j := 1 to m do
      s(j) := 0;
    endfor
    for i := 1 to n do
      for j := 1 to m do
        s(j) := s(j) + r(i) * a(i, j);
        q(i) := q(i) + a(i, j) * p(j);
      endfor
    endfor
";

/// GEMVER-style composite: rank-two update then two matrix-vector
/// products.
pub const GEMVER: &str = "
    sym n;
    for i := 1 to n do
      for j := 1 to n do
        a(i, j) := a(i, j) + u1(i) * v1(j) + u2(i) * v2(j);
      endfor
    endfor
    for i := 1 to n do
      for j := 1 to n do
        x(i) := x(i) + a(j, i) * y(j);
      endfor
    endfor
    for i := 1 to n do
      for j := 1 to n do
        w(i) := w(i) + a(i, j) * x(j);
      endfor
    endfor
";

/// ATAX: matrix times its transpose times a vector.
pub const ATAX: &str = "
    sym n, m;
    for i := 1 to n do
      tmp(i) := 0;
      for j := 1 to m do
        tmp(i) := tmp(i) + a(i, j) * x(j);
      endfor
      for j := 1 to m do
        y(j) := y(j) + a(i, j) * tmp(i);
      endfor
    endfor
";

/// MVT: two independent matrix-vector products.
pub const MVT: &str = "
    sym n;
    for i := 1 to n do
      for j := 1 to n do
        x1(i) := x1(i) + a(i, j) * y1(j);
      endfor
    endfor
    for i := 1 to n do
      for j := 1 to n do
        x2(i) := x2(i) + a(j, i) * y2(j);
      endfor
    endfor
";

/// After Banerjee, *Loop Transformations for Restructuring Compilers*,
/// Example 5.7 (p. 135; reconstruction of the chill `dep_test` suite):
/// stride-2 write against the odd offsets. The GCD test disproves the
/// dependence (2 ∤ 1); the Banerjee bounds test cannot (the real-valued
/// difference range straddles 0). The Omega test proves independence
/// exactly.
pub const BANERJEE_5_7: &str = "
    for i := 1 to 100 do
      a(2*i) := b(i);
      c(i) := a(2*i + 1);
    endfor
";

/// Banerjee Example 5.10 (p. 144; reconstruction): unit-stride accesses
/// to disjoint constant ranges. The GCD test is useless (gcd 1 divides
/// everything); the Banerjee bounds test disproves the dependence, and
/// the Omega test agrees.
pub const BANERJEE_5_10: &str = "
    for i := 1 to 50 do
      a(i + 60) := b(i);
      c(i) := a(i);
    endfor
";

/// Banerjee Example 5.11 (p. 150; reconstruction): coupled subscripts.
/// Dimension by dimension both baselines say "maybe" (i = i' and
/// i = i' + 1 are each satisfiable), but the conjunction is not — only a
/// test that solves the dimensions *simultaneously* proves independence.
pub const BANERJEE_5_11: &str = "
    for i := 1 to 100 do
      a(i, i) := b(i);
      c(i) := a(i, i + 1);
    endfor
";

/// Banerjee Example 5.12 (p. 156; reconstruction): symbolic bounds. The
/// write region `n+1..2n` and the read region `1..n` are disjoint for
/// every n, but both baselines give up on the symbolic loop bounds. The
/// second statement is a genuine stride-2 recurrence that every test
/// must keep.
pub const BANERJEE_5_12: &str = "
    sym n;
    assume n >= 1;
    for i := 1 to n do
      a(i + n) := b(i);
      c(i) := a(i);
    endfor
    for i := 2 to n do
      d(2*i) := d(2*i - 2);
    endfor
";

/// Pascal's triangle built row by row in place (triangular kill
/// structure).
pub const PASCAL: &str = "
    sym n;
    for i := 2 to n do
      for j := 2 to i-1 do
        c(i, j) := c(i-1, j-1) + c(i-1, j);
      endfor
      c(i, 1) := 1;
      c(i, i) := 1;
    endfor
";

/// Successive over-relaxation on a 2-D grid (in place, both neighbors).
pub const SOR2D: &str = "
    sym n, m, t;
    for it := 1 to t do
      for i := 2 to n-1 do
        for j := 2 to m-1 do
          u(i, j) := u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1);
        endfor
      endfor
    endfor
";

/// Gauss-Jordan elimination (full pivot row updates).
pub const GAUSS_JORDAN: &str = "
    sym n;
    for k := 1 to n do
      for j := 1 to n do
        if j != k then
          a(k, j) := a(k, j) / a(k, k);
        endif
      endfor
      for i := 1 to n do
        if i != k then
          for j := 1 to n do
            a(i, j) := a(i, j) - a(i, k) * a(k, j);
          endfor
        endif
      endfor
    endfor
";

/// Running maximum with an index (reduction with two scalars).
pub const RUNNING_MAX: &str = "
    sym n;
    best := a(1);
    besti := 1;
    for i := 2 to n do
      best := max(best, a(i));
      besti := besti + 1;
    endfor
    x := best;
";

/// Blocked copy through a small buffer (repeated total kill of the
/// buffer).
pub const BLOCKED_COPY: &str = "
    sym n, b;
    for blk := 0 to n/1 do
      for i := 1 to 8 do
        buf(i) := src(8 * blk + i);
      endfor
      for i := 1 to 8 do
        dst(8 * blk + i) := buf(i);
      endfor
    endfor
";

/// In-place array reversal via symmetric swaps through temporaries.
pub const SWAP_HALVES: &str = "
    sym n;
    for i := 1 to n do
      t1 := a(i);
      a(i) := a(2 * n + 1 - i);
      a(2 * n + 1 - i) := t1;
    endfor
";

/// Row sweep into a scratch row, then a stale pivot-slot reset after the
/// uses. The reset's value is only ever reachable across outer
/// iterations, where the next row's sweep overwrites it first — a false
/// carried flow on `t` that only the §4.1 kill test (a *different*
/// statement is the killer) eliminates, unlocking the `i` loop after
/// privatizing `t`. Refinement alone cannot: the reset never rewrites
/// its own slot.
pub const PIVOT_RESET: &str = "
    sym n, m;
    assume m >= n;
    for i := 1 to n do
      for j := 1 to m do
        t(j) := a(i, j);
      endfor
      for j := 1 to m do
        b(i, j) := t(j);
      endfor
      t(i) := 0;
    endfor
";

/// [`PIVOT_RESET`] nested inside a genuinely sequential time loop: the
/// kill-unlocked parallel loop sits at depth 2 while the `s` loop stays
/// sequential (carried flow on `b`).
pub const STEPPED_RESET: &str = "
    sym n, m, steps;
    assume m >= n;
    for s := 1 to steps do
      for i := 1 to n do
        for j := 1 to m do
          t(j) := a(i, j) + c(s);
        endfor
        for j := 1 to m do
          b(i, j) := b(i, j) + t(j);
        endfor
        t(i) := 0;
      endfor
    endfor
";

/// All corpus entries in a stable order.
pub fn all() -> Vec<CorpusEntry> {
    vec![
        CorpusEntry {
            name: "example1",
            source: EXAMPLE_1,
        },
        CorpusEntry {
            name: "example1_m",
            source: EXAMPLE_1_M,
        },
        CorpusEntry {
            name: "example1_m_asserted",
            source: EXAMPLE_1_M_ASSERTED,
        },
        CorpusEntry {
            name: "example2",
            source: EXAMPLE_2,
        },
        CorpusEntry {
            name: "example3",
            source: EXAMPLE_3,
        },
        CorpusEntry {
            name: "example4",
            source: EXAMPLE_4,
        },
        CorpusEntry {
            name: "example5",
            source: EXAMPLE_5,
        },
        CorpusEntry {
            name: "example6",
            source: EXAMPLE_6,
        },
        CorpusEntry {
            name: "example7",
            source: EXAMPLE_7,
        },
        CorpusEntry {
            name: "example8",
            source: EXAMPLE_8,
        },
        CorpusEntry {
            name: "example9",
            source: EXAMPLE_9,
        },
        CorpusEntry {
            name: "example10",
            source: EXAMPLE_10,
        },
        CorpusEntry {
            name: "example11",
            source: EXAMPLE_11,
        },
        CorpusEntry {
            name: "cholsky",
            source: CHOLSKY,
        },
        CorpusEntry {
            name: "cholesky_dense",
            source: CHOLESKY_DENSE,
        },
        CorpusEntry {
            name: "lu",
            source: LU,
        },
        CorpusEntry {
            name: "wavefront",
            source: WAVEFRONT,
        },
        CorpusEntry {
            name: "wavefront_skewed",
            source: WAVEFRONT_SKEWED,
        },
        CorpusEntry {
            name: "wavefront_triangular",
            source: WAVEFRONT_TRIANGULAR,
        },
        CorpusEntry {
            name: "matmul",
            source: MATMUL,
        },
        CorpusEntry {
            name: "jacobi",
            source: JACOBI,
        },
        CorpusEntry {
            name: "seidel",
            source: SEIDEL,
        },
        CorpusEntry {
            name: "tridiag",
            source: TRIDIAG,
        },
        CorpusEntry {
            name: "kill_chain",
            source: CONTRIVED_KILL_CHAIN,
        },
        CorpusEntry {
            name: "partial_kill",
            source: CONTRIVED_PARTIAL_KILL,
        },
        CorpusEntry {
            name: "coupled",
            source: CONTRIVED_COUPLED,
        },
        CorpusEntry {
            name: "scalar",
            source: CONTRIVED_SCALAR,
        },
        CorpusEntry {
            name: "recurrence",
            source: RECURRENCE,
        },
        CorpusEntry {
            name: "disjoint",
            source: CONTRIVED_DISJOINT,
        },
        CorpusEntry {
            name: "gauss",
            source: GAUSS,
        },
        CorpusEntry {
            name: "syr1",
            source: SYR1,
        },
        CorpusEntry {
            name: "banded_mv",
            source: BANDED_MV,
        },
        CorpusEntry {
            name: "odd_even",
            source: ODD_EVEN,
        },
        CorpusEntry {
            name: "prefix_sum",
            source: PREFIX_SUM,
        },
        CorpusEntry {
            name: "reverse_copy",
            source: REVERSE_COPY,
        },
        CorpusEntry {
            name: "red_black",
            source: RED_BLACK,
        },
        CorpusEntry {
            name: "double_buffer",
            source: DOUBLE_BUFFER,
        },
        CorpusEntry {
            name: "dot_and_axpy",
            source: DOT_AND_AXPY,
        },
        CorpusEntry {
            name: "boundary_interior",
            source: BOUNDARY_INTERIOR,
        },
        CorpusEntry {
            name: "diagonal_sweep",
            source: DIAGONAL_SWEEP,
        },
        CorpusEntry {
            name: "strip_mine",
            source: STRIP_MINE,
        },
        CorpusEntry {
            name: "histogram",
            source: HISTOGRAM,
        },
        CorpusEntry {
            name: "trsolve",
            source: TRSOLVE,
        },
        CorpusEntry {
            name: "conv1d",
            source: CONV1D,
        },
        CorpusEntry {
            name: "correlate",
            source: CORRELATE,
        },
        CorpusEntry {
            name: "bicg",
            source: BICG,
        },
        CorpusEntry {
            name: "gemver",
            source: GEMVER,
        },
        CorpusEntry {
            name: "atax",
            source: ATAX,
        },
        CorpusEntry {
            name: "mvt",
            source: MVT,
        },
        CorpusEntry {
            name: "banerjee_5_7",
            source: BANERJEE_5_7,
        },
        CorpusEntry {
            name: "banerjee_5_10",
            source: BANERJEE_5_10,
        },
        CorpusEntry {
            name: "banerjee_5_11",
            source: BANERJEE_5_11,
        },
        CorpusEntry {
            name: "banerjee_5_12",
            source: BANERJEE_5_12,
        },
        CorpusEntry {
            name: "pascal",
            source: PASCAL,
        },
        CorpusEntry {
            name: "sor2d",
            source: SOR2D,
        },
        CorpusEntry {
            name: "gauss_jordan",
            source: GAUSS_JORDAN,
        },
        CorpusEntry {
            name: "running_max",
            source: RUNNING_MAX,
        },
        CorpusEntry {
            name: "blocked_copy",
            source: BLOCKED_COPY,
        },
        CorpusEntry {
            name: "swap_halves",
            source: SWAP_HALVES,
        },
        CorpusEntry {
            name: "pivot_reset",
            source: PIVOT_RESET,
        },
        CorpusEntry {
            name: "stepped_reset",
            source: STEPPED_RESET,
        },
    ]
}

/// Looks up a corpus entry by name.
pub fn by_name(name: &str) -> Option<CorpusEntry> {
    all().into_iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, Program};

    #[test]
    fn every_corpus_program_parses_and_analyzes() {
        for entry in all() {
            let p = Program::parse(entry.source)
                .unwrap_or_else(|e| panic!("{} failed to parse: {e}", entry.name));
            analyze(&p).unwrap_or_else(|e| panic!("{} failed analysis: {e}", entry.name));
        }
    }

    #[test]
    fn cholsky_has_nine_statements() {
        let p = Program::parse(CHOLSKY).unwrap();
        let info = analyze(&p).unwrap();
        assert_eq!(info.stmts.len(), 9);
        // Statement 1 (paper label 3) sits under 4 loops: J, I, JJ, L.
        let s1 = &info.stmts[0];
        assert_eq!(s1.loops.len(), 4);
        assert_eq!(
            s1.loops.iter().map(|l| l.var.as_str()).collect::<Vec<_>>(),
            vec!["J", "I", "JJ", "L"]
        );
        // Statement 7 (paper label 7) reads b(I,L,K) under loops I,K,JJ,L.
        let s7 = &info.stmts[6];
        assert_eq!(
            s7.loops.iter().map(|l| l.var.as_str()).collect::<Vec<_>>(),
            vec!["I", "K", "JJ", "L"]
        );
    }

    #[test]
    fn cholsky_reads_and_writes_look_right() {
        let p = Program::parse(CHOLSKY).unwrap();
        let info = analyze(&p).unwrap();
        let s1 = &info.stmts[0];
        assert_eq!(s1.write.array, "a");
        assert_eq!(s1.reads.len(), 3);
        // epss statement reads a and writes epss.
        let s3 = &info.stmts[2];
        assert_eq!(s3.write.array, "epss");
        assert_eq!(s3.reads.len(), 1);
        assert_eq!(s3.reads[0].array, "a");
    }

    #[test]
    fn by_name_roundtrip() {
        assert!(by_name("cholsky").is_some());
        assert!(by_name("nope").is_none());
        for e in all() {
            assert_eq!(by_name(e.name).unwrap().source, e.source);
        }
    }

    #[test]
    fn example_7_symbols() {
        let p = Program::parse(EXAMPLE_7).unwrap();
        let info = analyze(&p).unwrap();
        for s in ["x", "y", "n", "m"] {
            assert!(info.syms.contains(s), "missing sym {s}");
        }
    }

    #[test]
    fn example_11_scalar_induction() {
        let p = Program::parse(EXAMPLE_11).unwrap();
        let info = analyze(&p).unwrap();
        // k is written, so it is a scalar, not a symbolic constant.
        assert!(info.written.contains("k"));
        assert!(!info.syms.contains("k"));
    }
}
