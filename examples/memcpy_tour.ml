(* The §III-A microbenchmark as a guided tour: one memcpy, four
   methodologies, with the AXI transaction timeline for each — the
   experiment that motivates Beethoven's memory-protocol abstractions.

     dune exec examples/memcpy_tour.exe [bytes] *)

let () =
  let bytes =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1)
    else 64 * 1024
  in
  (* the microbenchmark targets a single DDR controller *)
  let platform =
    { Platform.Device.aws_f1 with Platform.Device.dram = Dram.Config.ddr4_2400 }
  in
  Printf.printf "memcpy of %d bytes on %s\n\n" bytes
    platform.Platform.Device.name;
  List.iter
    (fun impl ->
      let r = Kernels.Memcpy.run ~impl ~bytes ~platform () in
      Printf.printf "%-22s %7.2f GB/s  (%s)\n"
        (Kernels.Memcpy.impl_name impl)
        r.Kernels.Memcpy.bandwidth_gbs
        (if r.Kernels.Memcpy.verified then "contents verified"
         else "VERIFICATION FAILED"))
    Kernels.Memcpy.all_impls;
  print_endline "\n4 KB transaction timelines:";
  List.iter
    (fun impl ->
      let tracer = Trace.create () in
      ignore (Kernels.Memcpy.run ~tracer ~impl ~bytes:4096 ~platform ());
      Printf.printf "\n%s\n%s" (Kernels.Memcpy.impl_name impl)
        (Trace.axi_timeline tracer ~time_scale:40_000))
    [ Kernels.Memcpy.Hls; Kernels.Memcpy.Beethoven_16beat;
      Kernels.Memcpy.Pure_hdl ]
