(* Per-layer probes for the traced run: set-up calls timed against the
   workload's own system, and isolated kernels on fixed seeded inputs.
   Each probe is the median of [reps] timed calls and checks its own
   result; a failed check is appended to [fails]. *)

module B = Beethoven

let reps = 5
let ms s = s *. 1000.
let check fails what ok = if not ok then fails := what :: !fails

(* The configuration a workload deploys, as the set-up probes rebuild it. *)
type system = {
  config : B.Config.t;
  platform : Platform.Device.t;
  memory_bytes : int option;  (** [None]: the Soc default *)
  behaviors : string -> B.Soc.behavior;
}

let setup_probes ~fails sys =
  let span name f = Meter.span ~layer:"beethoven" name f in
  let elab_s, fresh =
    Meter.median_of ~reps (fun () ->
        span "elaborate" (fun () -> B.Elaborate.elaborate sys.config sys.platform))
  in
  let cache = B.Elaborate.Cache.create () in
  ignore (B.Elaborate.Cache.elaborate cache sys.config sys.platform);
  let cached_s, cached =
    Meter.median_of ~reps (fun () ->
        span "elaborate_cached" (fun () ->
            B.Elaborate.Cache.elaborate cache sys.config sys.platform))
  in
  check fails "cached elaboration differs from a fresh one"
    (B.Elaborate.summary cached = B.Elaborate.summary fresh
    && B.Elaborate.Cache.misses cache
       = List.length sys.config.B.Config.systems);
  (* each Soc eagerly allocates its device memory: compact between reps
     so one rep's garbage is not the next one's cost *)
  let soc_s, soc =
    Meter.median_of ~reps ~after:Gc.compact (fun () ->
        span "soc_create" (fun () ->
            B.Soc.create ?memory_bytes:sys.memory_bytes fresh
              ~behaviors:sys.behaviors))
  in
  check fails "Soc.create memory size"
    (B.Soc.mem_size soc
    = Option.value sys.memory_bytes ~default:(64 * 1024 * 1024));
  let handle_s, h =
    Meter.median_of ~reps (fun () ->
        Meter.span ~layer:"runtime" "handle_create" (fun () ->
            Runtime.Handle.create soc))
  in
  check fails "fresh handle allocator does not cover device memory"
    (Runtime.Alloc.free_bytes (Runtime.Handle.allocator h) = B.Soc.mem_size soc);
  [
    ("beethoven.elaborate_ms", ms elab_s);
    ("beethoven.elaborate_cached_ms", ms cached_s);
    ("beethoven.soc_create_ms", ms soc_s);
    ("runtime.handle_create_ms", ms handle_s);
  ]

(* 10^6 events from 64 callbacks that each reschedule themselves. *)
let desim_events ~fails =
  let n_events = 1_000_000 and n_cb = 64 in
  let s, fired =
    Meter.median_of ~reps (fun () ->
        Meter.span ~layer:"desim" "events" (fun () ->
            let e = Desim.Engine.create () in
            let fired = ref 0 and scheduled = ref n_cb in
            let rec cb k () =
              incr fired;
              if !scheduled < n_events then begin
                incr scheduled;
                Desim.Engine.schedule e ~delay:(1 + (k mod 7)) (cb k)
              end
            in
            for k = 0 to n_cb - 1 do
              Desim.Engine.schedule e ~delay:0 (cb k)
            done;
            Desim.Engine.run e;
            !fired))
  in
  check fails "desim fired a different number of events" (fired = n_events);
  [ ("desim.ns_per_event", s *. 1e9 /. float_of_int n_events) ]

(* 10^4 seeded 64 B - 4 KB reads and writes on a fresh quad-channel DRAM. *)
let dram_bursts ~fails =
  let n = 10_000 in
  let s, (want, got, completed) =
    Meter.median_of ~reps (fun () ->
        Meter.span ~layer:"dram" "submit" (fun () ->
            let e = Desim.Engine.create () in
            let d = Dram.create e Dram.Config.ddr4_2400_quad in
            let rng = Fault.Rng.create ~seed:7L in
            let bytes = ref 0 and completed = ref 0 in
            for _ = 1 to n do
              let size = 64 * (1 + Fault.Rng.int rng ~bound:64) in
              let addr = 64 * Fault.Rng.int rng ~bound:(1 lsl 20) in
              let dir =
                if Fault.Rng.int rng ~bound:2 = 0 then Dram.Read else Dram.Write
              in
              bytes := !bytes + size;
              Dram.submit d ~addr ~bytes:size ~dir
                ~on_complete:(fun () -> incr completed)
                ()
            done;
            Desim.Engine.run e;
            (!bytes / 64, Dram.row_hits d + Dram.row_misses d, !completed)))
  in
  check fails "dram burst count differs from requested bytes / 64" (want = got);
  check fails "dram completed a different number of requests" (completed = n);
  [ ("dram.ns_per_burst", s *. 1e9 /. float_of_int got) ]

(* 5000 compiled-backend steps of the A3 core under seeded random
   stimulus. The outputs must repeat across reps and match the
   interpreter over the first 64 cycles. *)
let hw_steps ~fails =
  let c = Attention.A3_rtl_core.circuit () in
  let cycles = 5000 in
  let st = Random.State.make [| 3 |] in
  let random_bits w =
    let rec chunks w =
      if w <= 16 then [ Bits.of_int ~width:w (Random.State.int st (1 lsl w)) ]
      else Bits.of_int ~width:16 (Random.State.int st 65536) :: chunks (w - 16)
    in
    Bits.concat_list (chunks w)
  in
  let stimulus =
    Array.init cycles (fun _ ->
        List.map (fun (n, w) -> (n, random_bits w)) (Hw.Circuit.inputs c))
  in
  let drive sim n =
    let h = ref Meter.fnv_offset in
    for i = 0 to n - 1 do
      List.iter (fun (n, v) -> Hw.Sim.set_input sim n v) stimulus.(i);
      List.iter
        (fun (n, _) -> h := Meter.fnv !h (Bits.to_hex_string (Hw.Sim.output sim n)))
        (Hw.Circuit.outputs c);
      Hw.Sim.step sim
    done;
    !h
  in
  let runs =
    List.init reps (fun _ ->
        let sim = Hw.Sim.create ~backend:Hw.Sim.Compiled c in
        Meter.timed (fun () ->
            Meter.span ~layer:"hw" "step" (fun () -> drive sim cycles)))
  in
  let digests = List.map fst runs in
  check fails "compiled A3 outputs differ between reps"
    (List.for_all (( = ) (List.hd digests)) digests);
  let prefix b = drive (Hw.Sim.create ~backend:b c) 64 in
  check fails "compiled A3 outputs differ from the interpreter"
    (prefix Hw.Sim.Compiled = prefix Hw.Sim.Interpreter);
  [
    ( "hw.sim_cycles_per_s",
      float_of_int cycles /. Meter.median (List.map snd runs) );
  ]

(* 5 p99 queries on a 10^5-sample series, checked against a sort of the
   same samples. *)
let quantile ~fails =
  let rng = Fault.Rng.create ~seed:11L in
  let xs = List.init 100_000 (fun _ -> Fault.Rng.float rng *. 1000.) in
  let series = Desim.Stats.series () in
  List.iter (Desim.Stats.observe series) xs;
  let s, q =
    Meter.median_of ~reps (fun () ->
        Meter.span ~layer:"desim" "quantile" (fun () ->
            Desim.Stats.quantile_opt series ~q:0.99))
  in
  check fails "quantile_opt differs from the sorted reference"
    (q = Some (Meter.quantile xs 0.99));
  [ ("desim.quantile_ms", ms s) ]

let all ~fails sys =
  List.concat
    [
      setup_probes ~fails sys;
      desim_events ~fails;
      dram_bursts ~fails;
      hw_steps ~fails;
      quantile ~fails;
    ]
