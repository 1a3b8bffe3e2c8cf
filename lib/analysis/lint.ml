(* Lint: diagnostic rules over IR modules.

   Every rule has a stable EV0xx code, a default severity and a check
   over the whole module; diagnostics share their shape with Verify.diag
   (function, op, message, Loc span) plus the code and severity.  The
   registry is extensible — register () replaces by code — and runs are
   deterministic: rules execute in code order and each rule reports in
   program order.

   Rule catalog:
     EV001 structural verification (Verify) ............ error
     EV010 dead pure op ................................ warning
     EV011 unused function ............................. warning
     EV012 unreachable function ........................ warning
     EV013 constant-foldable arith op .................. info
     EV020 definition does not dominate use ............ error
     EV030 use after dealloc ........................... error (possible: warning)
     EV031 double dealloc .............................. error (possible: warning)
     EV032 leaked allocation ........................... warning
     EV033 constant index out of bounds ................ error
     EV040 insecure information flow (Ift) ............. error
     EV041 security/placement clearance conflict ....... error *)

open Everest_ir
module Sec = Dialect_sec
module Ift = Everest_security.Ift

type severity = Error | Warning | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type diag = {
  code : string;
  severity : severity;
  in_func : string;
  op_name : string;
  message : string;
  loc : Loc.t;
}

let of_verify (d : Verify.diag) =
  { code = "EV001"; severity = Error; in_func = d.Verify.in_func;
    op_name = d.Verify.op_name; message = d.Verify.message;
    loc = d.Verify.loc }

(* Context for cross-layer rules: clearance of named platform nodes, used
   when a locality annotation pins data to "node:NAME". *)
type ctx = { node_clearance : string -> Sec.level option }

let default_ctx = { node_clearance = (fun _ -> None) }

(* Clearance implied by a locality string, mirroring the platform tiers:
   cloud nodes are trusted up to Confidential, the (inner) edge up to
   Internal, endpoints/sensors only with Public data.  "node:NAME" defers
   to the context; unknown localities are skipped. *)
let clearance_of_locality ctx s =
  let has_prefix p =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  if has_prefix "node:" then
    ctx.node_clearance (String.sub s 5 (String.length s - 5))
  else if has_prefix "cloud" then Some Sec.Confidential
  else if has_prefix "edge" || has_prefix "inner-edge" || has_prefix "fog" then
    Some Sec.Internal
  else if has_prefix "endpoint" || has_prefix "sensor" || has_prefix "device"
  then Some Sec.Public
  else None

type rule = {
  rule_code : string;
  rule_name : string;
  rule_severity : severity;
  rule_doc : string;
  rule_check : ctx -> Ir.modul -> diag list;
}

let mk (r : rule) ?severity ~in_func ~op_name ~loc message =
  { code = r.rule_code;
    severity = Option.value ~default:r.rule_severity severity;
    in_func; op_name; message; loc }

let op_diag r ?severity ~in_func (o : Ir.op) message =
  mk r ?severity ~in_func ~op_name:o.Ir.name ~loc:o.Ir.loc message

let per_func m f = List.concat_map (fun (fn : Ir.func) -> f fn) m.Ir.funcs

(* ---- the builtin rules ----------------------------------------------- *)

let rec r_verify =
  { rule_code = "EV001"; rule_name = "verify"; rule_severity = Error;
    rule_doc = "structural verification (SSA form, dialect invariants, \
                call-graph integrity)";
    rule_check = (fun _ m -> List.map of_verify (Verify.verify_module m)) }

and r_dead_op =
  { rule_code = "EV010"; rule_name = "dead-op"; rule_severity = Warning;
    rule_doc = "pure op whose results are never used";
    rule_check =
      (fun _ m ->
        per_func m (fun f ->
            List.map
              (fun (o : Ir.op) ->
                op_diag r_dead_op ~in_func:f.Ir.fname o
                  (Fmt.str "results of this pure op are never used (%s)"
                     (String.concat ", "
                        (List.map
                           (fun (v : Ir.value) -> Fmt.str "%%%d" v.Ir.vid)
                           o.Ir.results))))
              (Liveness.dead_ops f))) }

and r_unused_func =
  { rule_code = "EV011"; rule_name = "unused-function"; rule_severity = Warning;
    rule_doc = "function never referenced by any call, offload or task";
    rule_check =
      (fun _ m ->
        List.map
          (fun (f : Ir.func) ->
            mk r_unused_func ~in_func:f.Ir.fname ~op_name:"func"
              ~loc:(Loc.name ("@" ^ f.Ir.fname))
              "function is never referenced")
          (Callgraph.unused m)) }

and r_unreachable_func =
  { rule_code = "EV012"; rule_name = "unreachable-function";
    rule_severity = Warning;
    rule_doc = "function referenced only from code unreachable from any root";
    rule_check =
      (fun _ m ->
        List.map
          (fun (f : Ir.func) ->
            mk r_unreachable_func ~in_func:f.Ir.fname ~op_name:"func"
              ~loc:(Loc.name ("@" ^ f.Ir.fname))
              "function is unreachable from main / entry points")
          (Callgraph.unreachable m)) }

and r_foldable =
  { rule_code = "EV013"; rule_name = "constant-foldable";
    rule_severity = Info;
    rule_doc = "pure arith op whose result is a compile-time constant";
    rule_check =
      (fun _ m ->
        per_func m (fun f ->
            List.map
              (fun ((o : Ir.op), c) ->
                op_diag r_foldable ~in_func:f.Ir.fname o
                  (Fmt.str "always evaluates to %a" Constprop.pp_const c))
              (Constprop.foldable f))) }

and r_dominance =
  { rule_code = "EV020"; rule_name = "undominated-use"; rule_severity = Error;
    rule_doc = "use of a value whose definition does not dominate it";
    rule_check =
      (fun _ m ->
        per_func m (fun f ->
            List.map
              (fun (u : Reaching.undominated) ->
                op_diag r_dominance ~in_func:f.Ir.fname u.Reaching.u_op
                  (Fmt.str
                     "operand %%%d is not defined on every path to this use"
                     u.Reaching.u_vid))
              (Reaching.undominated_uses f))) }

and r_memlife =
  { rule_code = "EV030"; rule_name = "memref-lifetime"; rule_severity = Error;
    rule_doc = "memref lifetime family: EV030 use-after-dealloc, EV031 \
                double-dealloc, EV032 leaked alloc, EV033 constant index \
                out of bounds";
    rule_check =
      (fun _ m ->
        per_func m (fun f ->
            List.map
              (fun (i : Memlife.issue) ->
                let base ?severity code message =
                  { (op_diag r_memlife ?severity ~in_func:f.Ir.fname i.Memlife.i_op
                       message)
                    with code }
                in
                match i.Memlife.kind with
                | Memlife.Use_after_free { definite = true } ->
                    base "EV030"
                      (Fmt.str "use of %%%d after dealloc" i.Memlife.i_vid)
                | Memlife.Use_after_free { definite = false } ->
                    base ~severity:Warning "EV030"
                      (Fmt.str "possible use of %%%d after dealloc"
                         i.Memlife.i_vid)
                | Memlife.Double_free { definite = true } ->
                    base "EV031"
                      (Fmt.str "double dealloc of %%%d" i.Memlife.i_vid)
                | Memlife.Double_free { definite = false } ->
                    base ~severity:Warning "EV031"
                      (Fmt.str "possible double dealloc of %%%d"
                         i.Memlife.i_vid)
                | Memlife.Leak ->
                    base ~severity:Warning "EV032"
                      (Fmt.str "allocation %%%d is never deallocated"
                         i.Memlife.i_vid)
                | Memlife.Out_of_bounds { index; axis; dim } ->
                    base "EV033"
                      (Fmt.str
                         "index %d on axis %d is out of bounds for dimension \
                          %d of %%%d"
                         index axis dim i.Memlife.i_vid))
              (Memlife.analyze f))) }

and r_insecure_flow =
  { rule_code = "EV040"; rule_name = "insecure-flow"; rule_severity = Error;
    rule_doc = "information-flow violation (Ift): classified data reaches a \
                sink with lower clearance";
    rule_check =
      (fun _ m ->
        List.map
          (fun (fname, (v : Ift.flow_violation)) ->
            { code = "EV040"; severity = Error; in_func = fname;
              op_name = v.Ift.op_name;
              message =
                Fmt.str "%s data reaches %s sink (%s)"
                  (Sec.level_name v.Ift.source_level)
                  (Sec.level_name v.Ift.sink_level)
                  v.Ift.detail;
              loc = v.Ift.vloc })
          (Ift.analyze_module m)) }

and r_clearance =
  { rule_code = "EV041"; rule_name = "clearance-conflict";
    rule_severity = Error;
    rule_doc = "Annot.Security vs. locality/placement: classified data \
                pinned to a node whose tier clearance is lower";
    rule_check =
      (fun ctx m ->
        let check_pair ~in_func ~op_name ~loc attrs =
          match
            ( Option.bind (Attr.find_str "everest.security" attrs)
                Sec.level_of_name,
              Attr.find_str "everest.locality" attrs )
          with
          | Some level, Some locality -> (
              match clearance_of_locality ctx locality with
              | Some clearance when not (Sec.level_leq level clearance) ->
                  [ { code = "EV041"; severity = Error; in_func; op_name;
                      message =
                        Fmt.str
                          "%s data is placed at %S whose clearance is only %s"
                          (Sec.level_name level) locality
                          (Sec.level_name clearance);
                      loc } ]
              | _ -> [])
          | _ -> []
        in
        per_func m (fun f ->
            check_pair ~in_func:f.Ir.fname ~op_name:"func"
              ~loc:(Loc.name ("@" ^ f.Ir.fname))
              f.Ir.fattrs
            @ Ir.fold_ops
                (fun acc (o : Ir.op) ->
                  match o.Ir.name with
                  | "df.task" | "df.source" ->
                      acc
                      @ check_pair ~in_func:f.Ir.fname ~op_name:o.Ir.name
                          ~loc:o.Ir.loc o.Ir.attrs
                  | _ -> acc)
                [] f.Ir.fbody)) }

let builtin_rules =
  [ r_verify; r_dead_op; r_unused_func; r_unreachable_func; r_foldable;
    r_dominance; r_memlife; r_insecure_flow; r_clearance ]

(* ---- registry ---------------------------------------------------------- *)

let registry : (string, rule) Hashtbl.t = Hashtbl.create 16
let register r = Hashtbl.replace registry r.rule_code r
let () = List.iter register builtin_rules

let all_rules () =
  Hashtbl.fold (fun _ r acc -> r :: acc) registry []
  |> List.sort (fun a b -> compare a.rule_code b.rule_code)

let find_rule code = Hashtbl.find_opt registry code

(* ---- running ----------------------------------------------------------- *)

let run ?(ctx = default_ctx) ?only (m : Ir.modul) : diag list =
  let rules =
    match only with
    | None -> all_rules ()
    | Some codes ->
        List.filter
          (fun r ->
            List.exists
              (fun c -> String.equal c r.rule_code || String.equal c r.rule_name)
              codes)
          (all_rules ())
  in
  List.concat_map (fun r -> r.rule_check ctx m) rules

let errors ds = List.filter (fun d -> d.severity = Error) ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let promote_warnings ds =
  List.map
    (fun d -> if d.severity = Warning then { d with severity = Error } else d)
    ds

(* ---- rendering --------------------------------------------------------- *)

let pp_diag ppf d =
  Fmt.pf ppf "%s[%s] [%s] %s: %s" (severity_name d.severity) d.code d.in_func
    d.op_name d.message;
  match d.loc with
  | Loc.Unknown -> ()
  | l -> Fmt.pf ppf " (%a)" Loc.pp l

let render_text ds =
  let lines = List.map (Fmt.str "%a" pp_diag) ds in
  let summary =
    Fmt.str "%d error(s), %d warning(s), %d info(s)"
      (List.length (errors ds))
      (List.length (warnings ds))
      (List.length (List.filter (fun d -> d.severity = Info) ds))
  in
  String.concat "\n" (lines @ [ summary ])

module Json = Everest_telemetry.Json

let to_json ds =
  let diag d =
    Json.Obj
      [ ("code", Json.Str d.code);
        ("severity", Json.Str (severity_name d.severity));
        ("func", Json.Str d.in_func); ("op", Json.Str d.op_name);
        ("message", Json.Str d.message);
        ("loc", Json.Str (Loc.to_string d.loc)) ]
  in
  Json.Obj
    [ ("diagnostics", Json.Arr (List.map diag ds));
      ("errors", Json.Num (float_of_int (List.length (errors ds))));
      ("warnings", Json.Num (float_of_int (List.length (warnings ds)))) ]
