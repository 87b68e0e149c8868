(* The paper's Fig. 2 core, written for real in the RTL DSL and run inside
   the composed SoC through the Rtl_core bridge: the adder below is the
   hardware that actually computes the results in simulation. The add is
   performed in place (read and write the same vector), as in Fig. 2. *)

module B = Beethoven

(* Command layout (single RoCC beat, LSB-first packing):
   payload1       = vec_addr
   payload2[31:0] = addend, payload2[51:32] = n_eles *)
let command =
  B.Cmd_spec.make ~name:"vec_add" ~funct:0 ~response_bits:32
    [
      ("vec_addr", B.Cmd_spec.Address);
      ("addend", B.Cmd_spec.Uint 32);
      ("n_eles", B.Cmd_spec.Uint 20);
    ]

let circuit () =
  let open Hw.Signal in
  let req_valid = input "req_valid" 1 in
  let _req_funct = input "req_funct" 7 in
  let req_p1 = input "req_p1" 64 in
  let req_p2 = input "req_p2" 64 in
  let resp_ready = input "resp_ready" 1 in
  let in_req_ready = input "vec_in_req_ready" 1 in
  let in_data_valid = input "vec_in_data_valid" 1 in
  let in_data = input "vec_in_data" 32 in
  let out_req_ready = input "vec_out_req_ready" 1 in
  let out_data_ready = input "vec_out_data_ready" 1 in

  (* command handshake: accept only when idle and both memory request
     ports can take the stream requests (Fig. 2's io.req.ready) *)
  let active = wire 1 in
  let req_ready = lnot active &: in_req_ready &: out_req_ready in
  let req_fire = req_valid &: req_ready in

  let addend = reg ~enable:req_fire (select req_p2 ~hi:31 ~lo:0) -- "addend" in
  let n_eles = reg ~enable:req_fire (select req_p2 ~hi:51 ~lo:32) -- "n_eles" in
  let len_bytes = uresize (concat [ select req_p2 ~hi:51 ~lo:32; zero 2 ]) 32 in

  (* streaming datapath: one element per cycle when both sides are ready *)
  let out_data_valid = in_data_valid &: active in
  let in_data_ready = out_data_ready &: active in
  let elem_fire = out_data_valid &: out_data_ready in
  let count = wire 20 in
  let done_ = active &: (count ==: n_eles) &: reduce_or n_eles in
  let resp_fire = done_ &: resp_ready in
  assign count
    (reg
       (mux2 resp_fire (zero 20)
          (mux2 elem_fire (count +: of_int ~width:20 1) count)));
  assign active (reg (mux2 req_fire vdd (mux2 resp_fire gnd active)));

  Hw.Circuit.create ~name:"vecadd_core"
    ~outputs:
      [
        ("req_ready", req_ready);
        ("resp_valid", done_);
        ("resp_data", uresize count 64);
        ("vec_in_req_valid", req_fire);
        ("vec_in_req_addr", req_p1);
        ("vec_in_req_len", len_bytes);
        ("vec_in_data_ready", in_data_ready);
        ("vec_out_req_valid", req_fire);
        ("vec_out_req_addr", req_p1);
        ("vec_out_req_len", len_bytes);
        ("vec_out_data_valid", out_data_valid);
        ("vec_out_data", in_data +: addend);
      ]

let config ?(n_cores = 1) () =
  B.Config.make ~name:"vecadd_rtl"
    [
      B.Config.system ~name:"VecAddRTL" ~n_cores
        ~read_channels:
          [ B.Config.read_channel ~name:"vec_in" ~data_bytes:4 () ]
        ~write_channels:
          [ B.Config.write_channel ~name:"vec_out" ~data_bytes:4 () ]
        ~commands:[ command ]
        ~kernel_circuit:(circuit ())
        ();
    ]

let behavior = B.Rtl_core.behavior

let run ?(n_cores = 1) ?(n_eles = 256) ~platform () =
  let design = B.Elaborate.elaborate (config ~n_cores ()) platform in
  let soc = B.Soc.create design ~behaviors:(fun _ -> behavior) in
  let handle = Runtime.Handle.create soc in
  let module H = Runtime.Handle in
  let addend = 1000l in
  let bufs =
    Array.init n_cores (fun core ->
        let p = H.malloc handle (n_eles * 4) in
        let host = H.host_bytes handle p in
        for i = 0 to n_eles - 1 do
          Bytes.set_int32_le host (i * 4) (Int32.of_int (((core * 31) + i) land 0xFFFF))
        done;
        p)
  in
  H.copy_all_to_fpga handle (Array.to_list bufs);
  let hs =
    Array.to_list
      (Array.mapi
         (fun core p ->
           H.send handle ~system:"VecAddRTL" ~core ~cmd:command
             ~args:
               [
                 ("vec_addr", Int64.of_int p.H.rp_addr);
                 ("addend", Int64.of_int32 addend);
                 ("n_eles", Int64.of_int n_eles);
               ])
         bufs)
  in
  let resps = H.await_all handle hs in
  H.copy_all_from_fpga handle (Array.to_list bufs);
  let ok = ref true in
  Array.iteri
    (fun core p ->
      let host = H.host_bytes handle p in
      for i = 0 to n_eles - 1 do
        let expect =
          Int32.add (Int32.of_int (((core * 31) + i) land 0xFFFF)) addend
        in
        if Bytes.get_int32_le host (i * 4) <> expect then ok := false
      done)
    bufs;
  (!ok, resps, Desim.Engine.now (H.engine handle))
