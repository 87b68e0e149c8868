(* Composer-level fuzzing: random configurations through elaboration
   invariants, and randomized end-to-end runs through the full stack
   (TLM and RTL cores, both platform families, odd sizes and tunings). *)

module B = Beethoven
module C = B.Config
module D = Platform.Device

let check_bool = Alcotest.(check bool)

(* ---- random configuration generator ---- *)

let gen_config =
  QCheck.Gen.(
    let* n_systems = 1 -- 3 in
    let* systems =
      flatten_l
        (List.init n_systems (fun si ->
             let* n_cores = 1 -- 6 in
             let* n_read = 0 -- 2 in
             let* n_write = 0 -- 2 in
             let* n_spads = 0 -- 2 in
             let* spad_bits = oneofl [ 8; 32; 64; 512 ] in
             let* spad_depth = 16 -- 2048 in
             let* burst = oneofl [ 8; 16; 32; 64 ] in
             let* in_flight = 1 -- 4 in
             let* tlp = bool in
             return
               (C.system
                  ~name:(Printf.sprintf "S%d" si)
                  ~n_cores
                  ~read_channels:
                    (List.init n_read (fun i ->
                         C.read_channel
                           ~name:(Printf.sprintf "r%d" i)
                           ~data_bytes:4 ~burst_beats:burst
                           ~max_in_flight:in_flight ~use_tlp:tlp
                           ~buffer_beats:(4 * burst) ()))
                  ~write_channels:
                    (List.init n_write (fun i ->
                         C.write_channel
                           ~name:(Printf.sprintf "w%d" i)
                           ~data_bytes:4 ~burst_beats:burst
                           ~max_in_flight:in_flight ~use_tlp:tlp
                           ~buffer_beats:(4 * burst) ()))
                  ~scratchpads:
                    (List.init n_spads (fun i ->
                         C.scratchpad
                           ~name:(Printf.sprintf "sp%d" i)
                           ~data_bits:spad_bits ~n_datas:spad_depth ()))
                  ~commands:
                    [ B.Cmd_spec.make ~name:"go" ~funct:0 ~response_bits:32 [] ]
                  ())))
    in
    return (C.make ~name:"fuzz" systems))

let arb_config = QCheck.make ~print:(fun c -> c.C.acc_name) gen_config

let prop name ?(count = 60) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let elaboration_invariants platform config =
  match B.Elaborate.elaborate config platform with
  | exception Failure _ -> true (* a clean does-not-fit is acceptable *)
  | d ->
      let module R = Platform.Resources in
      (* command endpoints are dense and unique *)
      let eps =
        List.concat_map
          (fun sys ->
            List.init sys.C.n_cores (fun core ->
                B.Elaborate.cmd_endpoint d ~system:sys.C.sys_name ~core))
          config.C.systems
      in
      let dense =
        List.sort compare eps = List.init (List.length eps) (fun i -> i)
      in
      (* memory endpoints: one per channel instance (+ spad init readers) *)
      let expected_mem_eps =
        List.fold_left
          (fun acc sys ->
            acc
            + sys.C.n_cores
              * (List.length sys.C.read_channels
                + List.length sys.C.write_channels
                + List.length
                    (List.filter
                       (fun sp -> sp.C.sp_init_from_memory)
                       sys.C.scratchpads)))
          0 config.C.systems
      in
      let mem_ok = List.length d.B.Elaborate.mem_endpoints = expected_mem_eps in
      (* accounting: grand total = beethoven + shell *)
      let acct =
        d.B.Elaborate.grand_total
        = R.add d.B.Elaborate.beethoven_total (D.total_shell platform)
      in
      (* every core is placed exactly once *)
      let placed =
        List.length d.B.Elaborate.floorplan.B.Floorplan.places
        = C.total_cores config
      in
      dense && mem_ok && acct && placed

let fuzz_elaborate =
  [
    prop "random configs elaborate with invariants (F1)" arb_config
      (elaboration_invariants D.aws_f1);
    prop "random configs elaborate with invariants (Kria)" arb_config
      (elaboration_invariants D.kria);
    prop "random configs elaborate with invariants (ASIC)" ~count:30
      arb_config
      (elaboration_invariants D.asap7);
  ]

(* ---- end-to-end fuzz ---- *)

let fuzz_end_to_end =
  [
    prop "vecadd correct for random sizes/cores/platforms" ~count:25
      QCheck.(triple (1 -- 4) (1 -- 3000) bool)
      (fun (cores, n_eles, embedded) ->
        let platform = if embedded then D.kria else D.aws_f1 in
        QCheck.assume (n_eles >= cores);
        let expected, actual, _ =
          Kernels.Vecadd.run ~n_cores:cores ~n_eles ~platform ()
        in
        expected = actual);
    prop "rtl vecadd correct for random sizes" ~count:10
      QCheck.(pair (1 -- 2) (1 -- 600))
      (fun (cores, n_eles) ->
        let ok, _, _ =
          Kernels.Vecadd_rtl.run ~n_cores:cores ~n_eles ~platform:D.aws_f1 ()
        in
        ok);
    prop "memcpy correct for random sizes and tunings" ~count:20
      QCheck.(pair (oneofl Kernels.Memcpy.all_impls) (64 -- 100_000))
      (fun (impl, bytes) ->
        let bytes = bytes / 4 * 4 in
        QCheck.assume (bytes > 0);
        let platform = { D.aws_f1 with D.dram = Dram.Config.ddr4_2400 } in
        (Kernels.Memcpy.run ~impl ~bytes ~platform ()).Kernels.Memcpy.verified);
  ]

let () =
  Alcotest.run "fuzz"
    [ ("elaborate", fuzz_elaborate); ("end-to-end", fuzz_end_to_end) ]
