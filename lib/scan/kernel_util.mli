(** Building blocks shared by the scan kernels. *)

val cube_local_scans :
  Ascend.Block.t ->
  x:Ascend.Global_tensor.t ->
  off:int ->
  len:int ->
  s:int ->
  l0a:Ascend.Local_tensor.t ->
  u:Ascend.Local_tensor.t ->
  l0c:Ascend.Local_tensor.t ->
  y:Ascend.Global_tensor.t ->
  unit
(** Cube-core stage of one [s^2]-tile: load [x\[off, off+len)] into
    L0A, multiply by [U_s] (local scans of the rows), and stream the
    result to [y] in GM (the L0C -> GM copy casts to [y]'s data type). *)

val hillis_steele_tile :
  Ascend.Block.t ->
  vec:int ->
  op:Ascend.Vec.binop ->
  buf:Ascend.Local_tensor.t ->
  tmp:Ascend.Local_tensor.t ->
  len:int ->
  unit
(** In-UB inclusive scan of [buf.(0 .. len)] under [op] (Add, Max, ...)
    with the log-step Hillis-Steele network: [ceil (log2 len)] rounds of
    one shifted {!Ascend.Vec.binop} plus one stitch copy. [tmp] is a
    scratch tile of the same data type and at least [len] elements.
    This is the vector-only building block the cube-based scans replace
    (and the inner loop of the {!Max_scan} and {!Segmented_scan}
    kernels, which have no matmul formulation). *)

val segmented_hillis_steele_tile :
  Ascend.Block.t ->
  vec:int ->
  v:Ascend.Local_tensor.t ->
  f:Ascend.Local_tensor.t ->
  tmp_v:Ascend.Local_tensor.t ->
  tmp_f:Ascend.Local_tensor.t ->
  zero:Ascend.Local_tensor.t ->
  len:int ->
  unit
(** In-UB inclusive {e segmented} scan of the (value, segment-start
    flag) pairs under the standard segmented-sum operator
    [(v2,f2) . (v1,f1) = ((if f2 then v2 else v1+v2), f1 or f2)]:
    per round, the shifted contribution is masked by the current flags
    with a vector select. [f] and [tmp_f] are int8; [zero] is a
    zero-filled value tile. After the call [v] holds the segmented
    inclusive scan and [f.(i)] is non-zero iff a segment boundary lies
    in [(0, i\]]. *)

val ceil_div : int -> int -> int
(** [ceil_div a b = (a + b - 1) / b] for positive [b]. *)

val round_up : int -> int -> int
(** Smallest multiple of [m] that is [>= a]. *)

val fit_tile : tile:int -> span:int -> int
(** [max 1 (min tile span)]: the element count of a scratch tile that
    serves at most [span] elements per use, e.g. one vector core's
    sub-block. Kernels keep [tile] as their copy granularity (a span
    shorter than [tile] is one tile either way) and allocate only
    [fit_tile]: {!Ascend.Host_buffer.create} zero-fills every element,
    and allocation size never enters a charge, so cycles, op counts and
    trace spans are unchanged. *)
