(* The RTL developer path end to end: write the Fig. 2 core in the DSL,
   inspect the generated Verilog, simulate it standalone with a VCD dump,
   then run it inside the composed SoC where its adder computes the real
   results.

     dune exec examples/rtl_quickstart.exe *)

let () =
  let circuit = Kernels.Vecadd_rtl.circuit () in

  print_endline "=== Generated Verilog (first lines) ===";
  let v = Hw.Verilog.of_circuit circuit in
  String.split_on_char '\n' v
  |> List.filteri (fun i _ -> i < 14)
  |> List.iter print_endline;
  Printf.printf "... (%d lines total)\n\n" (List.length (String.split_on_char '\n' v));

  print_endline "=== Standalone cycle simulation with VCD ===";
  let sim = Hw.Cyclesim.create circuit in
  let q_out =
    List.find (fun (n, _) -> n = "vec_out_data") (Hw.Circuit.outputs circuit)
    |> snd
  in
  let vcd = Hw.Vcd.create sim ~signals:[ ("vec_out_data", q_out) ] in
  let set = Hw.Cyclesim.set_input_int sim in
  set "vec_in_req_ready" 1;
  set "vec_out_req_ready" 1;
  set "resp_ready" 1;
  set "vec_out_data_ready" 1;
  set "req_valid" 1;
  Hw.Cyclesim.set_input sim "req_p1" (Bits.of_int ~width:64 0x2000);
  Hw.Cyclesim.set_input sim "req_p2"
    (Bits.of_int64 ~width:64 Int64.(logor 100L (shift_left 3L 32)));
  Hw.Cyclesim.step sim;
  set "req_valid" 0;
  List.iter
    (fun v ->
      set "vec_in_data_valid" 1;
      set "vec_in_data" v;
      Hw.Cyclesim.settle sim;
      Printf.printf "  in=%d  ->  out=%d\n" v
        (Hw.Cyclesim.output_int sim "vec_out_data");
      Hw.Vcd.sample vcd;
      Hw.Cyclesim.step sim)
    [ 1; 2; 3 ];
  let tmp = Filename.temp_file "vecadd" ".vcd" in
  Hw.Vcd.write_file vcd tmp;
  Printf.printf "  waveform written to %s (%d bytes)\n\n" tmp
    (String.length (Hw.Vcd.contents vcd));

  print_endline "=== The same netlist inside the composed SoC ===";
  let ok, resps, wall_ps =
    Kernels.Vecadd_rtl.run ~n_cores:2 ~n_eles:512
      ~platform:Platform.Device.aws_f1 ()
  in
  Printf.printf "2 cores x 512 elements: %s, responses %s, %.1f us simulated\n"
    (if ok then "correct" else "WRONG")
    (String.concat ", " (List.map Int64.to_string resps))
    (float_of_int wall_ps /. 1e6);
  if not ok then exit 1
