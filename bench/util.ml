(* Table printing, Bechamel wrappers and the pieces every bench driver
   shares: the [--quick] flag, the wall timer, BENCH-record output, and the
   e16-scale serving fixture of the E19/E20 sweeps. *)

module Json = Everest_telemetry.Json
module Srv = Everest_serving

let header title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n"

let row fmt = Printf.printf fmt

(* Render a simple aligned table. *)
let table ~cols rows =
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left
          (fun w r -> max w (String.length (List.nth r i)))
          (String.length c) rows)
      cols
  in
  let print_row cells =
    List.iteri
      (fun i c -> Printf.printf "%-*s  " (List.nth widths i) c)
      cells;
    print_newline ()
  in
  print_row cols;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let f2 x = Printf.sprintf "%.2f" x
let f1 x = Printf.sprintf "%.1f" x
let e2 x = Printf.sprintf "%.2e" x
let si x =
  if x >= 1e9 then Printf.sprintf "%.2fG" (x /. 1e9)
  else if x >= 1e6 then Printf.sprintf "%.2fM" (x /. 1e6)
  else if x >= 1e3 then Printf.sprintf "%.2fk" (x /. 1e3)
  else Printf.sprintf "%.1f" x

let time_str s =
  if s < 1e-6 then Printf.sprintf "%.1f ns" (s *. 1e9)
  else if s < 1e-3 then Printf.sprintf "%.1f us" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else Printf.sprintf "%.2f s" s

(* ---- bench drivers ------------------------------------------------------------- *)

(* [--quick] selects the reduced CI sweep of a bench executable. *)
let quick = Array.exists (String.equal "--quick") Sys.argv

(* [f ()] and its wall seconds.  The attributed-overhead benches divide
   [Store.work_s] / [Watch.work_s], which sum wall time, by this total
   minus that work, so both sides of the fraction must use this clock. *)
let time_one f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let median xs =
  let sorted = List.sort compare xs in
  List.nth sorted (List.length sorted / 2)

(* Write the BENCH record [file], print its path and the [expected]-shape
   note; unless [passed], print the formatted verdict on stderr and exit 1. *)
let write_bench ~file ~expected ~passed json fmt =
  Json.write_file file json;
  Printf.printf "\nwrote %s\n%s" file expected;
  Printf.ksprintf
    (fun msg ->
      if not passed then begin
        prerr_endline msg;
        exit 1
      end)
    fmt

(* The e16-scale tenant mix of the E19 and E20 sweeps: a diurnal open
   tenant at [rate] plus four closed-loop users. *)
let e16_tenants ~rate =
  [ Srv.Workload.open_tenant ~name:"acme" ~kernel:"mm" ~rate_rps:rate
      ~diurnal_amplitude:0.3 ~diurnal_period_s:1.0
      ~features:(fun seq -> [ ("size", float_of_int (1024 + (64 * (seq mod 4)))) ])
      ();
    Srv.Workload.closed_tenant ~name:"globex" ~kernel:"mm" ~users:4
      ~think_s:0.05 () ]

(* The fabric output the byte-identity checks compare. *)
let render r =
  Srv.Fabric.render_log r ^ "\n" ^ Srv.Fabric.render_slos r ^ "\n"
  ^ Srv.Fabric.render_summary r

(* ---- Bechamel ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

(* Run the tests and return (name, ns/run) pairs. *)
let run_benchmarks ?(quota = 0.5) (tests : Test.t list) =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg instances test in
      List.filter_map
        (fun (name, raw) ->
          let ols =
            Analyze.OLS.ols ~r_square:false ~responder:"monotonic-clock"
              ~predictors:[| "run" |] raw.Benchmark.lr
          in
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> Some (name, t)
          | _ -> None)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) results []))
    tests
  |> List.sort compare

let print_benchmarks ?(quota = 0.5) title tests =
  header title;
  let rows =
    List.map
      (fun (name, ns) ->
        [ name; Printf.sprintf "%.1f" ns; time_str (ns /. 1e9) ])
      (run_benchmarks ~quota tests)
  in
  table ~cols:[ "benchmark"; "ns/run"; "per-run" ] rows
