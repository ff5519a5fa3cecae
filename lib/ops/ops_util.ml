open Ascend

let bitcast_f16_to_u16 device x =
  if not (Dtype.equal (Global_tensor.dtype x) Dtype.F16) then
    invalid_arg "Ops_util.bitcast_f16_to_u16: input must be f16";
  let n = Global_tensor.length x in
  let u =
    Device.alloc device Dtype.U16 n ~name:(Global_tensor.name x ^ "_bits")
  in
  if Device.functional device then
    Host_buffer.bitcast_f16_to_u16 ~src:(Global_tensor.buffer x)
      ~dst:(Global_tensor.buffer u);
  u

let bitcast_u16_to_f16 device u =
  if not (Dtype.equal (Global_tensor.dtype u) Dtype.U16) then
    invalid_arg "Ops_util.bitcast_u16_to_f16: input must be u16";
  let n = Global_tensor.length u in
  let x =
    Device.alloc device Dtype.F16 n ~name:(Global_tensor.name u ^ "_vals")
  in
  if Device.functional device then
    Host_buffer.bitcast_u16_to_f16 ~src:(Global_tensor.buffer u)
      ~dst:(Global_tensor.buffer x);
  x

let read_scalar gt i ~default =
  if Global_tensor.is_backed gt then Global_tensor.get gt i else default

let ub_tile = 8192

let slice device gt ~off ~len =
  if off < 0 || len <= 0 || off + len > Global_tensor.length gt then
    invalid_arg "Ops_util.slice: range out of bounds";
  let dt = Global_tensor.dtype gt in
  let out =
    Device.alloc device dt len ~name:(Global_tensor.name gt ^ "_slice")
  in
  let blocks = Scheduler.blocks (Scheduler.plan device ~n:len) in
  let vpc = (Device.cost device).Cost_model.vec_per_core in
  let vchunk = Scan.Kernel_util.ceil_div len (blocks * vpc) in
  let body ctx =
    let i = Block.idx ctx in
    let schedule = Scan.Scan_core.current_schedule () in
    let ub_n = Scan.Kernel_util.fit_tile ~tile:ub_tile ~span:vchunk in
    let ubs =
      Array.init vpc (fun v ->
          Array.init 2 (fun _ -> Block.alloc ctx (Mem_kind.Ub v) dt ub_n))
    in
    for v = 0 to vpc - 1 do
      let vlo = ((i * vpc) + v) * vchunk in
      let vhi = min len (vlo + vchunk) in
      if vhi > vlo then
        (* The staged tile doubles as the store source, so the store
           stays synchronous (the slot is only reused once its store
           retired); loads overlap via the walker's ping-pong slots. *)
        Scan.Scan_core.pipeline_tiles ctx ~schedule
          ~in_engine:(Engine.Vec_mte_in v) ~tile:ub_tile ~n:(vhi - vlo)
          ~load:(fun ~slot ~off:o ~len:l ->
            Scan.Scan_core.stage_in ctx ~schedule
              ~engine:(Engine.Vec_mte_in v) ~src:gt
              ~src_off:(off + vlo + o) ~dst:ubs.(v).(slot) ~len:l ())
          ~work:(fun ~slot ~off:o ~len:l ->
            Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v)
              ~src:ubs.(v).(slot) ~dst:out ~dst_off:(vlo + o) ~len:l ())
          ()
    done
  in
  let stats = Launch.run ~name:"slice" device ~blocks body in
  (out, stats)

let blit device ~src ?(src_off = 0) ~dst ?(dst_off = 0) ~len () =
  if len <= 0 || src_off < 0 || dst_off < 0
     || src_off + len > Global_tensor.length src
     || dst_off + len > Global_tensor.length dst
  then invalid_arg "Ops_util.blit: range out of bounds";
  if not (Dtype.equal (Global_tensor.dtype src) (Global_tensor.dtype dst))
  then invalid_arg "Ops_util.blit: data types differ";
  let dt = Global_tensor.dtype src in
  let blocks = Scheduler.blocks (Scheduler.plan device ~n:len) in
  let vpc = (Device.cost device).Cost_model.vec_per_core in
  let vchunk = Scan.Kernel_util.ceil_div len (blocks * vpc) in
  let body ctx =
    let i = Block.idx ctx in
    let schedule = Scan.Scan_core.current_schedule () in
    let ub_n = Scan.Kernel_util.fit_tile ~tile:ub_tile ~span:vchunk in
    let ubs =
      Array.init vpc (fun v ->
          Array.init 2 (fun _ -> Block.alloc ctx (Mem_kind.Ub v) dt ub_n))
    in
    for v = 0 to vpc - 1 do
      let vlo = ((i * vpc) + v) * vchunk in
      let vhi = min len (vlo + vchunk) in
      if vhi > vlo then
        Scan.Scan_core.pipeline_tiles ctx ~schedule
          ~in_engine:(Engine.Vec_mte_in v) ~tile:ub_tile ~n:(vhi - vlo)
          ~load:(fun ~slot ~off:o ~len:l ->
            Scan.Scan_core.stage_in ctx ~schedule
              ~engine:(Engine.Vec_mte_in v) ~src
              ~src_off:(src_off + vlo + o) ~dst:ubs.(v).(slot) ~len:l ())
          ~work:(fun ~slot ~off:o ~len:l ->
            Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v)
              ~src:ubs.(v).(slot) ~dst ~dst_off:(dst_off + vlo + o) ~len:l ())
          ()
    done
  in
  Launch.run ~name:"blit" device ~blocks body
