(* The RTL developer surface: the Fig. 2 core in the DSL, driven (a) in
   isolation through Cyclesim with a hand-rolled test bench + VCD dump,
   and (b) inside the full composed SoC through the Rtl_core bridge.
   Also covers the Intercore write ports. *)

module B = Beethoven
module D = Platform.Device

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- the circuit in isolation ---- *)

let test_vecadd_circuit_standalone () =
  let circuit = Kernels.Vecadd_rtl.circuit () in
  let sim = Hw.Cyclesim.create circuit in
  let set = Hw.Cyclesim.set_input_int sim in
  (* idle, both request ports ready *)
  set "vec_in_req_ready" 1;
  set "vec_out_req_ready" 1;
  set "resp_ready" 1;
  set "vec_in_data_valid" 0;
  set "vec_out_data_ready" 1;
  set "req_valid" 0;
  check_int "idle: ready" 1 (Hw.Cyclesim.output_int sim "req_ready");
  check_int "idle: no resp" 0 (Hw.Cyclesim.output_int sim "resp_valid");
  (* issue a command: 4 elements, addend 7, addr 0x1000 *)
  set "req_valid" 1;
  Hw.Cyclesim.set_input sim "req_p1" (Bits.of_int ~width:64 0x1000);
  Hw.Cyclesim.set_input sim "req_p2"
    (Bits.of_int64 ~width:64 Int64.(logor 7L (shift_left 4L 32)));
  Hw.Cyclesim.settle sim;
  check_int "issues read req" 1 (Hw.Cyclesim.output_int sim "vec_in_req_valid");
  check_int "read addr" 0x1000 (Hw.Cyclesim.output_int sim "vec_in_req_addr");
  check_int "read len = 16 bytes" 16 (Hw.Cyclesim.output_int sim "vec_in_req_len");
  check_int "issues write req" 1 (Hw.Cyclesim.output_int sim "vec_out_req_valid");
  Hw.Cyclesim.step sim;
  set "req_valid" 0;
  check_int "busy: not ready" 0 (Hw.Cyclesim.output_int sim "req_ready");
  (* stream 4 elements through the datapath *)
  List.iteri
    (fun i v ->
      set "vec_in_data_valid" 1;
      set "vec_in_data" v;
      Hw.Cyclesim.settle sim;
      check_int
        (Printf.sprintf "element %d added" i)
        (v + 7)
        (Hw.Cyclesim.output_int sim "vec_out_data");
      check_int "out valid" 1 (Hw.Cyclesim.output_int sim "vec_out_data_valid");
      Hw.Cyclesim.step sim)
    [ 10; 20; 30; 40 ];
  set "vec_in_data_valid" 0;
  check_int "response raised" 1 (Hw.Cyclesim.output_int sim "resp_valid");
  check_int "count reported" 4 (Hw.Cyclesim.output_int sim "resp_data");
  Hw.Cyclesim.step sim;
  check_int "back to idle" 1 (Hw.Cyclesim.output_int sim "req_ready");
  check_int "resp cleared" 0 (Hw.Cyclesim.output_int sim "resp_valid")

let test_vecadd_circuit_backpressure () =
  (* with out_data_ready low, elements must not be consumed *)
  let circuit = Kernels.Vecadd_rtl.circuit () in
  let sim = Hw.Cyclesim.create circuit in
  let set = Hw.Cyclesim.set_input_int sim in
  set "vec_in_req_ready" 1;
  set "vec_out_req_ready" 1;
  set "resp_ready" 1;
  set "req_valid" 1;
  Hw.Cyclesim.set_input sim "req_p1" (Bits.of_int ~width:64 0);
  Hw.Cyclesim.set_input sim "req_p2"
    (Bits.of_int64 ~width:64 Int64.(shift_left 2L 32));
  Hw.Cyclesim.step sim;
  set "req_valid" 0;
  set "vec_in_data_valid" 1;
  set "vec_in_data" 5;
  set "vec_out_data_ready" 0;
  Hw.Cyclesim.settle sim;
  check_int "input stalled" 0 (Hw.Cyclesim.output_int sim "vec_in_data_ready");
  Hw.Cyclesim.step sim;
  Hw.Cyclesim.step sim;
  check_int "no response while stalled" 0
    (Hw.Cyclesim.output_int sim "resp_valid")

let test_vecadd_verilog () =
  let v = Hw.Verilog.of_circuit (Kernels.Vecadd_rtl.circuit ()) in
  let has s =
    let n = String.length s and m = String.length v in
    let rec go i = i + n <= m && (String.sub v i n = s || go (i + 1)) in
    go 0
  in
  check_bool "module" true (has "module vecadd_core");
  check_bool "ports" true (has "vec_out_data");
  check_bool "sequential logic" true (has "always @(posedge clk)")

(* Verilog names come from the design, not from the process-global
   signal ids: a second build of a design emits the same text *)
let test_verilog_canonical () =
  List.iter
    (fun (name, build) ->
      let first = Hw.Verilog.of_circuit (build ()) in
      let second = Hw.Verilog.of_circuit (build ()) in
      check_bool (name ^ " emits the same Verilog twice") true
        (String.equal first second))
    [
      ("vecadd", Kernels.Vecadd_rtl.circuit);
      ("a3", Attention.A3_rtl_core.circuit);
    ]

(* ---- VCD dumping ---- *)

let test_vcd_dump () =
  let open Hw.Signal in
  let d = input "d" 4 in
  let q = reg d -- "q" in
  let circuit = Hw.Circuit.create ~name:"t" ~outputs:[ ("q", q) ] in
  let sim = Hw.Cyclesim.create circuit in
  let vcd = Hw.Vcd.create sim ~signals:[ ("d", d); ("q", q) ] in
  List.iter
    (fun v ->
      Hw.Cyclesim.set_input_int sim "d" v;
      Hw.Cyclesim.settle sim;
      Hw.Vcd.sample vcd;
      Hw.Cyclesim.step sim)
    [ 1; 1; 1; 5; 9 ];
  let text = Hw.Vcd.contents vcd in
  let has s =
    let n = String.length s and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = s || go (i + 1)) in
    go 0
  in
  check_bool "header" true (has "$enddefinitions $end");
  check_bool "var declared" true (has "$var wire 4");
  check_bool "initial timestep" true (has "#0");
  check_bool "binary value change" true (has "b0001 ");
  (* d changes at steps 0, 3, 4; q changes at step 1; step 2 is stable *)
  check_bool "change at step 3" true (has "#3");
  check_bool "change at step 4" true (has "#4");
  check_bool "no timestep without changes" true (not (has "#2"))

(* ---- the bridge: RTL core inside the SoC ---- *)

let test_rtl_core_in_soc () =
  let ok, resps, _ =
    Kernels.Vecadd_rtl.run ~n_cores:2 ~n_eles:200 ~platform:D.aws_f1 ()
  in
  check_bool "contents correct (computed by the netlist)" true ok;
  Alcotest.(check (list int64)) "responses carry counts" [ 200L; 200L ] resps

let test_rtl_core_sequential_commands () =
  (* the same core instance must handle several commands in sequence *)
  let design =
    B.Elaborate.elaborate (Kernels.Vecadd_rtl.config ()) D.aws_f1
  in
  let soc =
    B.Soc.create design ~behaviors:(fun _ -> Kernels.Vecadd_rtl.behavior)
  in
  let handle = Runtime.Handle.create soc in
  let module H = Runtime.Handle in
  let p = H.malloc handle 1024 in
  for i = 0 to 255 do
    Bytes.set_int32_le (H.host_bytes handle p) (i * 4) 0l
  done;
  let dma = ref false in
  H.copy_to_fpga handle p ~on_done:(fun () -> dma := true);
  Desim.Engine.run (H.engine handle);
  (* three in-place adds of 1 over the same buffer *)
  for _ = 1 to 3 do
    let h =
      H.send handle ~system:"VecAddRTL" ~core:0 ~cmd:Kernels.Vecadd_rtl.command
        ~args:
          [
            ("vec_addr", Int64.of_int p.H.rp_addr);
            ("addend", 1L);
            ("n_eles", 256L);
          ]
    in
    ignore (H.await handle h)
  done;
  Alcotest.(check int32)
    "three adds accumulated" 3l
    (B.Soc.read_u32 soc (p.H.rp_addr + 400))

(* Soc.create applies each core's behavior to its ctx once, at boot: the
   applied part (here, the bridge's simulator) serves every command the
   core runs *)
let test_rtl_behavior_applied_once () =
  let module H = Runtime.Handle in
  let design =
    B.Elaborate.elaborate (Kernels.Vecadd_rtl.config ~n_cores:2 ()) D.aws_f1
  in
  let applied = ref 0 in
  let soc =
    B.Soc.create design ~behaviors:(fun _ ctx ->
        incr applied;
        Kernels.Vecadd_rtl.behavior ctx)
  in
  let handle = H.create soc in
  let bufs = List.init 2 (fun _ -> H.malloc handle 1024) in
  H.copy_all_to_fpga handle bufs;
  for _ = 1 to 3 do
    List.iteri
      (fun core p ->
        ignore
          (H.await handle
             (H.send handle ~system:"VecAddRTL" ~core
                ~cmd:Kernels.Vecadd_rtl.command
                ~args:
                  [
                    ("vec_addr", Int64.of_int p.H.rp_addr);
                    ("addend", 1L);
                    ("n_eles", 256L);
                  ])))
      bufs
  done;
  check_int "applied once per core" 2 !applied;
  List.iter
    (fun p ->
      Alcotest.(check int32)
        "three adds accumulated" 3l
        (B.Soc.read_u32 soc (p.H.rp_addr + 400)))
    bufs

(* A core whose response counts the commands it has accepted: the count
   lives in a register, so it reaches 3 on the third command only if one
   simulator serves all three (a bridge built per command answers 1 each
   time). *)
let test_rtl_core_state_persists () =
  let circuit =
    let open Hw.Signal in
    let req_valid = input "req_valid" 1 in
    let pending = wire 1 in
    let req_ready = lnot pending in
    let fire = req_valid &: req_ready in
    let count = wire 64 in
    assign count (reg (mux2 fire (count +: of_int ~width:64 1) count));
    assign pending (reg fire);
    Hw.Circuit.create ~name:"counter"
      ~outputs:
        [
          ("req_ready", req_ready);
          ("resp_valid", pending);
          ("resp_data", count);
        ]
  in
  let command = B.Cmd_spec.make ~name:"count" ~funct:0 ~response_bits:64 [] in
  let config =
    B.Config.make ~name:"counter"
      [
        B.Config.system ~name:"Counter" ~n_cores:1 ~commands:[ command ]
          ~kernel_circuit:circuit ();
      ]
  in
  let soc =
    B.Soc.create
      (B.Elaborate.elaborate config D.aws_f1)
      ~behaviors:(fun _ -> B.Rtl_core.behavior)
  in
  let handle = Runtime.Handle.create soc in
  let responses =
    List.init 3 (fun _ ->
        Runtime.Handle.await handle
          (Runtime.Handle.send handle ~system:"Counter" ~core:0 ~cmd:command
             ~args:[]))
  in
  Alcotest.(check (list int64)) "counted across commands" [ 1L; 2L; 3L ]
    responses

(* the first vecadd command on a VecAddRTL SoC whose kernel circuit is
   [circuit]; the Failure or Invalid_argument message the bridge raises,
   if any *)
let first_rtl_command_failure circuit =
  let cfg = Kernels.Vecadd_rtl.config () in
  let cfg =
    {
      cfg with
      B.Config.systems =
        List.map
          (fun (sys : B.Config.system) ->
            { sys with B.Config.kernel_circuit = circuit })
          cfg.B.Config.systems;
    }
  in
  let design = B.Elaborate.elaborate cfg D.aws_f1 in
  let soc = B.Soc.create design ~behaviors:(fun _ -> B.Rtl_core.behavior) in
  let handle = Runtime.Handle.create soc in
  match
    Runtime.Handle.await handle
      (Runtime.Handle.send handle ~system:"VecAddRTL" ~core:0
         ~cmd:Kernels.Vecadd_rtl.command
         ~args:[ ("vec_addr", 0L); ("addend", 0L); ("n_eles", 1L) ])
  with
  | _ -> None
  | exception (Failure msg | Invalid_argument msg) -> Some msg

let contains msg sub =
  let n = String.length sub and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
  go 0

let test_rtl_missing_port_rejected () =
  let bad =
    let open Hw.Signal in
    Hw.Circuit.create ~name:"bad" ~outputs:[ ("req_ready", input "x" 1) ]
  in
  match first_rtl_command_failure (Some bad) with
  | Some msg ->
      check_bool ("names the missing port: " ^ msg) true
        (contains msg "missing output port")
  | None -> Alcotest.fail "a circuit without the bridge's ports must fail"

(* a read channel's data port narrower than the channel fails at the
   first command, before any data arrives, though device memory is all
   zeros (the value the port already holds) *)
let test_rtl_data_width_rejected () =
  let bad =
    let open Hw.Signal in
    let zero w = of_int ~width:w 0 in
    Hw.Circuit.create ~name:"narrow"
      ~outputs:
        [
          ("req_ready", zero 1);
          ("resp_valid", zero 1);
          ("resp_data", zero 64);
          ("vec_in_req_valid", zero 1);
          ("vec_in_req_addr", zero 64);
          ("vec_in_req_len", zero 32);
          ("vec_in_data_ready", zero 1);
          ("vec_out_req_valid", zero 1);
          ("vec_out_req_addr", zero 64);
          ("vec_out_req_len", zero 32);
          ("vec_out_data_valid", zero 1);
          ("vec_out_data", zero 32);
          ("probe", input "vec_in_data" 16);
        ]
  in
  match first_rtl_command_failure (Some bad) with
  | Some msg ->
      check_bool ("names the data port: " ^ msg) true (contains msg "vec_in_data")
  | None -> Alcotest.fail "a data port of the wrong width must fail"

let test_rtl_no_kernel_circuit_rejected () =
  match first_rtl_command_failure None with
  | Some msg ->
      check_bool ("names the system: " ^ msg) true (contains msg "VecAddRTL")
  | None -> Alcotest.fail "an RTL system without a kernel circuit must fail"

(* a finished run must not keep its SoC reachable: the bridge's
   simulators (and their Reader/Writer handles) live as long as the SoC *)
let test_rtl_core_releases_socs () =
  let live_bytes () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  let before = live_bytes () in
  for _ = 1 to 3 do
    let ok, _, _ = Kernels.Vecadd_rtl.run ~platform:D.aws_f1 () in
    check_bool "run verified" true ok
  done;
  let grown = live_bytes () - before in
  (* each run's SoC zero-fills 64 MB of device memory *)
  let bound = 64 * 1024 * 1024 / 4 in
  if grown > bound then
    Alcotest.failf "3 runs left %d MB live (bound %d MB)"
      (grown / 1024 / 1024) (bound / 1024 / 1024)

(* The A3 core reads its keys and values through scratchpad rows: load
   them, attend, load different keys and values at the same addresses,
   attend again. Both rounds must match A3.attend_fixed, so the bridge
   feeds each row as it is now, not as it was at that address. *)
let test_rtl_core_reloaded_scratchpads () =
  let module A = Attention in
  let module H = Runtime.Handle in
  let design = B.Elaborate.elaborate (A.A3_rtl_core.config ()) D.aws_f1 in
  let soc = B.Soc.create design ~behaviors:(fun _ -> A.A3_rtl_core.behavior) in
  let h = H.create soc in
  let lanes = A.A3.dim and n_keys = A.A3.n_keys in
  let lcg = Fault.lcg ~seed:77 in
  let rows n =
    Array.init n (fun _ -> Array.init lanes (fun _ -> (lcg () mod 33) - 16))
  in
  let pk = H.malloc h (n_keys * 64) and pv = H.malloc h (n_keys * 64) in
  let pq = H.malloc h 64 and po = H.malloc h 64 in
  let query = (rows 1).(0) in
  A.A3.put_rows (H.host_bytes h pq) [| query |];
  let round () =
    let keys = rows n_keys and values = rows n_keys in
    A.A3.put_rows (H.host_bytes h pk) keys;
    A.A3.put_rows (H.host_bytes h pv) values;
    H.copy_all_to_fpga h [ pk; pv; pq ];
    let run cmd args =
      ignore
        (H.await h
           (H.send h ~system:"A3RTL" ~core:0 ~cmd
              ~args:(List.map (fun (k, v) -> (k, Int64.of_int v)) args)))
    in
    run A.Accel.load_kv_command
      [ ("k_addr", pk.H.rp_addr); ("v_addr", pv.H.rp_addr) ];
    run A.A3_rtl_core.attend_command
      [ ("q_addr", pq.H.rp_addr); ("out_addr", po.H.rp_addr); ("n_queries", 1) ];
    H.copy_all_from_fpga h [ po ];
    (A.A3.row_of_bytes (H.host_bytes h po) 0, A.A3.attend_fixed ~query ~keys ~values)
  in
  let got1, want1 = round () in
  let got2, want2 = round () in
  check_bool "first round matches attend_fixed" true (got1 = want1);
  check_bool "the reload changes the answer" true (want1 <> want2);
  check_bool "reloaded round matches attend_fixed" true (got2 = want2)

(* ---- intercore ports ---- *)

let intercore_config () =
  let producer_cmd =
    B.Cmd_spec.make ~name:"produce" ~funct:0 ~response_bits:32
      [ ("base", B.Cmd_spec.Uint 32); ("count", B.Cmd_spec.Uint 16) ]
  in
  let consumer_cmd =
    B.Cmd_spec.make ~name:"reduce" ~funct:0 ~response_bits:64
      [ ("count", B.Cmd_spec.Uint 16) ]
  in
  ( producer_cmd,
    consumer_cmd,
    B.Config.make ~name:"pipeline"
      [
        B.Config.system ~name:"Producer" ~n_cores:1
          ~intra_core_ports:
            [
              {
                B.Config.ic_name = "to_consumer";
                ic_to_system = "Consumer";
                ic_to_scratchpad = "inbox";
              };
            ]
          ~commands:[ producer_cmd ] ();
        B.Config.system ~name:"Consumer" ~n_cores:2
          ~scratchpads:
            [ B.Config.scratchpad ~name:"inbox" ~data_bits:64 ~n_datas:64 () ]
          ~commands:[ consumer_cmd ] ();
      ] )

let test_intercore_pipeline () =
  let producer_cmd, consumer_cmd, cfg = intercore_config () in
  let design = B.Elaborate.elaborate cfg D.aws_f1 in
  let producer : B.Soc.behavior =
   fun ctx beats ~respond ->
    let args =
      B.Cmd_spec.unpack producer_cmd
        (List.map (fun b -> (b.B.Rocc.payload1, b.B.Rocc.payload2)) beats)
    in
    let base = Int64.to_int (List.assoc "base" args) in
    let count = Int64.to_int (List.assoc "count" args) in
    let port = B.Soc.intercore_out ctx "to_consumer" in
    let pending = ref (2 * count) in
    let finish () =
      decr pending;
      if !pending = 0 then respond (Int64.of_int count)
    in
    for row = 0 to count - 1 do
      (* fan the values out to both consumer cores *)
      List.iter
        (fun target_core ->
          let data = Bytes.create 8 in
          Bytes.set_int64_le data 0 (Int64.of_int (base + row));
          B.Soc.Intercore.write port ~target_core ~row ~data ~on_done:finish)
        [ 0; 1 ]
    done
  in
  let consumer : B.Soc.behavior =
   fun ctx beats ~respond ->
    let args =
      B.Cmd_spec.unpack consumer_cmd
        (List.map (fun b -> (b.B.Rocc.payload1, b.B.Rocc.payload2)) beats)
    in
    let count = Int64.to_int (List.assoc "count" args) in
    let sp = B.Soc.scratchpad ctx "inbox" in
    let sum = ref 0L in
    for row = 0 to count - 1 do
      sum :=
        Int64.add !sum (Bytes.get_int64_le (B.Soc.Scratchpad.get sp row) 0)
    done;
    respond !sum
  in
  let soc =
    B.Soc.create design ~behaviors:(function
      | "Producer" -> producer
      | "Consumer" -> consumer
      | s -> failwith s)
  in
  let handle = Runtime.Handle.create soc in
  let module H = Runtime.Handle in
  let p =
    H.send handle ~system:"Producer" ~core:0 ~cmd:producer_cmd
      ~args:[ ("base", 100L); ("count", 10L) ]
  in
  Alcotest.(check int64) "producer wrote all rows" 10L (H.await handle p);
  (* both consumers see the same data: sum 100..109 = 1045 *)
  List.iter
    (fun core ->
      let c =
        H.send handle ~system:"Consumer" ~core ~cmd:consumer_cmd
          ~args:[ ("count", 10L) ]
      in
      Alcotest.(check int64)
        (Printf.sprintf "consumer %d sum" core)
        1045L (H.await handle c))
    [ 0; 1 ]

let test_intercore_validation () =
  let _, _, cfg = intercore_config () in
  let design = B.Elaborate.elaborate cfg D.aws_f1 in
  let seen = ref [] in
  let probe : B.Soc.behavior =
   fun ctx _ ~respond ->
    let port = B.Soc.intercore_out ctx "to_consumer" in
    (try
       B.Soc.Intercore.write port ~target_core:5 ~row:0
         ~data:(Bytes.create 8) ~on_done:ignore
     with Invalid_argument m -> seen := m :: !seen);
    (try
       B.Soc.Intercore.write port ~target_core:0 ~row:999
         ~data:(Bytes.create 8) ~on_done:ignore
     with Invalid_argument m -> seen := m :: !seen);
    (try
       B.Soc.Intercore.write port ~target_core:0 ~row:0
         ~data:(Bytes.create 3) ~on_done:ignore
     with Invalid_argument m -> seen := m :: !seen);
    respond 0L
  in
  let soc =
    B.Soc.create design ~behaviors:(function
      | "Producer" -> probe
      | _ -> fun _ _ ~respond -> respond 0L)
  in
  let handle = Runtime.Handle.create soc in
  let producer_cmd, _, _ = intercore_config () in
  let h =
    Runtime.Handle.send handle ~system:"Producer" ~core:0 ~cmd:producer_cmd
      ~args:[ ("base", 0L); ("count", 0L) ]
  in
  ignore (Runtime.Handle.await handle h);
  check_int "three rejections" 3 (List.length !seen)

let () =
  Alcotest.run "rtl"
    [
      ( "circuit",
        [
          Alcotest.test_case "standalone" `Quick test_vecadd_circuit_standalone;
          Alcotest.test_case "backpressure" `Quick
            test_vecadd_circuit_backpressure;
          Alcotest.test_case "verilog" `Quick test_vecadd_verilog;
          Alcotest.test_case "canonical verilog" `Quick test_verilog_canonical;
        ] );
      ("vcd", [ Alcotest.test_case "dump" `Quick test_vcd_dump ]);
      ( "bridge",
        [
          Alcotest.test_case "in soc" `Quick test_rtl_core_in_soc;
          Alcotest.test_case "sequential commands" `Quick
            test_rtl_core_sequential_commands;
          Alcotest.test_case "behaviour applied once per core" `Quick
            test_rtl_behavior_applied_once;
          Alcotest.test_case "core state persists across commands" `Quick
            test_rtl_core_state_persists;
          Alcotest.test_case "missing ports" `Quick
            test_rtl_missing_port_rejected;
          Alcotest.test_case "data port width" `Quick
            test_rtl_data_width_rejected;
          Alcotest.test_case "no kernel circuit" `Quick
            test_rtl_no_kernel_circuit_rejected;
          Alcotest.test_case "finished SoCs are released" `Quick
            test_rtl_core_releases_socs;
          Alcotest.test_case "reloaded scratchpads" `Quick
            test_rtl_core_reloaded_scratchpads;
        ] );
      ( "intercore",
        [
          Alcotest.test_case "pipeline" `Quick test_intercore_pipeline;
          Alcotest.test_case "validation" `Quick test_intercore_validation;
        ] );
    ]
