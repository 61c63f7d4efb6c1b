//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! serde shim without `syn`/`quote`: the item's token stream is parsed by
//! hand, which is sufficient for the shapes this workspace uses —
//! named-field structs, unit structs, and enums with unit, tuple, and
//! struct variants, all without generic parameters. The `#[serde(skip)]`
//! field attribute is honored (skipped on serialize, `Default`-filled on
//! deserialize), and so is the `#[serde(deny_unknown_fields)]` container
//! attribute on named-field structs (an object key that names no field
//! is an ``unknown field `…` `` error instead of being ignored).
//! Unsupported shapes produce a compile error naming the offending item.
//!
//! The generated code streams: `serialize_json` pushes each key as a
//! static literal and each value straight into the output `String`, and
//! `deserialize_json` reads through `serde::Reader`, filling one
//! `Option` per field in document order and resolving them in
//! declaration order (see `Reader::read_struct`). A struct or struct
//! variant reads at most 64 non-skipped fields.
//!
//! The generated representation matches serde's externally-tagged
//! default:
//!
//! * struct → `{"field": value, ...}`
//! * unit variant → `"Variant"`
//! * one-element tuple variant → `{"Variant": value}`
//! * n-element tuple variant → `{"Variant": [values...]}`
//! * struct variant → `{"Variant": {"field": value, ...}}`

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Field {
    name: String,
    skip: bool,
}

#[derive(Debug)]
enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    kind: VariantKind,
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        generics: Vec<String>,
        fields: Vec<Field>,
        deny_unknown_fields: bool,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    UnitStruct {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().unwrap(),
        Err(e) => compile_error(&e),
    }
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input).and_then(|item| fits_reader(&item).map(|()| item)) {
        Ok(item) => gen_deserialize(&item).parse().unwrap(),
        Err(e) => compile_error(&e),
    }
}

/// `Reader::read_struct` tracks seen fields in a `u64`.
fn fits_reader(item: &Item) -> Result<(), String> {
    let too_many = |fields: &[Field]| fields.iter().filter(|f| !f.skip).count() > 64;
    let wide = match item {
        Item::Struct { fields, .. } => too_many(fields),
        Item::Enum { variants, .. } => variants
            .iter()
            .any(|v| matches!(&v.kind, VariantKind::Struct(fields) if too_many(fields))),
        _ => false,
    };
    if wide {
        return Err("serde shim derive: more than 64 fields to deserialize".into());
    }
    Ok(())
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({:?});", msg).parse().unwrap()
}

// ---------------------------------------------------------------- parsing

/// The `#[serde(...)]` flags found on one item or field.
#[derive(Default)]
struct SerdeAttrs {
    skip: bool,
    deny_unknown_fields: bool,
}

/// Consumes leading outer attributes (`#[...]`) from `tokens[i..]`,
/// returning the `#[serde(...)]` flags among them.
fn eat_attrs(tokens: &[TokenTree], i: &mut usize) -> SerdeAttrs {
    let mut attrs = SerdeAttrs::default();
    while *i + 1 < tokens.len() {
        let TokenTree::Punct(p) = &tokens[*i] else {
            break;
        };
        if p.as_char() != '#' {
            break;
        }
        let TokenTree::Group(g) = &tokens[*i + 1] else {
            break;
        };
        if g.delimiter() != Delimiter::Bracket {
            break;
        }
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if let Some(TokenTree::Ident(id)) = inner.first() {
            if id.to_string() == "serde" {
                if let Some(TokenTree::Group(args)) = inner.get(1) {
                    let text = args.stream().to_string();
                    for part in text.split(',') {
                        match part.trim() {
                            "skip" => attrs.skip = true,
                            "deny_unknown_fields" => attrs.deny_unknown_fields = true,
                            _ => {}
                        }
                    }
                }
            }
        }
        *i += 2;
    }
    attrs
}

/// Consumes an optional `pub` / `pub(...)` visibility.
fn eat_visibility(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let container = eat_attrs(&tokens, &mut i);
    eat_visibility(&tokens, &mut i);

    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    i += 1;

    // Optional generics: plain type parameters only (`<W>`, `<A, B>`).
    let mut generics = Vec::new();
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            i += 1;
            let mut expect_param = true;
            loop {
                match tokens.get(i) {
                    Some(TokenTree::Punct(p)) if p.as_char() == '>' => {
                        i += 1;
                        break;
                    }
                    Some(TokenTree::Punct(p)) if p.as_char() == ',' => {
                        expect_param = true;
                        i += 1;
                    }
                    Some(TokenTree::Ident(id)) if expect_param => {
                        generics.push(id.to_string());
                        expect_param = false;
                        i += 1;
                    }
                    other => {
                        return Err(format!(
                            "serde shim derive: unsupported generics on `{name}` (got {other:?}); \
                             only plain type parameters are handled"
                        ));
                    }
                }
            }
        }
    }
    if !generics.is_empty() && kind == "enum" {
        return Err(format!(
            "serde shim derive: generic enum `{name}` is not supported"
        ));
    }

    match (kind.as_str(), tokens.get(i)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Ok(Item::Struct {
                name,
                generics,
                fields: parse_fields(g.stream())?,
                deny_unknown_fields: container.deny_unknown_fields,
            })
        }
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => {
            Ok(Item::UnitStruct { name })
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            let mut arity = if inner.is_empty() { 0 } else { 1 };
            let mut depth = 0i32;
            for t in &inner {
                match t {
                    TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                    TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                    TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => arity += 1,
                    _ => {}
                }
            }
            Ok(Item::TupleStruct { name, arity })
        }
        ("struct", _) => Err(format!("serde shim derive: cannot parse struct `{name}`")),
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Ok(Item::Enum {
                name,
                variants: parse_variants(g.stream())?,
            })
        }
        _ => Err(format!("serde shim derive: cannot parse item `{name}`")),
    }
}

fn parse_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let skip = eat_attrs(&tokens, &mut i).skip;
        if i >= tokens.len() {
            break;
        }
        eat_visibility(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, got {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after field `{name}`, got {other:?}")),
        }
        // Skip the type: consume until a top-level comma. Generic angle
        // brackets contain no top-level commas in token-tree form only if
        // we track depth, so count `<`/`>` (token trees flatten generics).
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field { name, skip });
    }
    Ok(fields)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        eat_attrs(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                let mut arity = if inner.is_empty() { 0 } else { 1 };
                let mut depth = 0i32;
                for t in &inner {
                    match t {
                        TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                        TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                        TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => arity += 1,
                        _ => {}
                    }
                }
                VariantKind::Tuple(arity)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_fields(g.stream())?)
            }
            _ => VariantKind::Unit,
        };
        // Skip an optional discriminant (`= expr`) and the trailing comma.
        while i < tokens.len() {
            if let TokenTree::Punct(p) = &tokens[i] {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

// ------------------------------------------------------------- generation

/// A Rust string literal holding `text`.
fn lit(text: &str) -> String {
    format!("{text:?}")
}

/// Statements appending `{"a":…,"b":…}` for `fields` to `__out`. With
/// `through_self` the fields are read as `&self.f`; otherwise `f` is an
/// in-scope match binding that is already a reference.
fn serialize_fields(fields: &[Field], through_self: bool) -> String {
    let mut out = String::new();
    let mut open = "{";
    for f in fields.iter().filter(|f| !f.skip) {
        let access = if through_self {
            format!("&self.{}", f.name)
        } else {
            f.name.clone()
        };
        out.push_str(&format!(
            "__out.push_str({}); ::serde::Serialize::serialize_json({access}, __out)?;",
            lit(&format!("{open}\"{}\":", f.name))
        ));
        open = ",";
    }
    out.push_str(if open == "{" {
        "__out.push_str(\"{}\");"
    } else {
        "__out.push('}');"
    });
    out
}

/// Statements appending `[x0,x1,…]` for the bindings `__x0..__x{n-1}`.
fn serialize_items(n: usize) -> String {
    let mut out = String::from("__out.push('[');");
    for k in 0..n {
        if k > 0 {
            out.push_str("__out.push(',');");
        }
        out.push_str(&format!(
            "::serde::Serialize::serialize_json(__x{k}, __out)?;"
        ));
    }
    out.push_str("__out.push(']');");
    out
}

/// An expression reading a struct (or struct variant) object into
/// `ty_path { … }`: one `Option` per field, filled by
/// `Reader::read_struct`, then resolved in declaration order.
fn deserialize_fields(ty_path: &str, fields: &[Field], not_object: &str, deny: bool) -> String {
    let read: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
    let mut out = String::from("{");
    for k in 0..read.len() {
        out.push_str(&format!("let mut __f{k} = ::core::option::Option::None;"));
    }
    let names: Vec<String> = read.iter().map(|f| lit(&f.name)).collect();
    let mut arms = String::new();
    for k in 0..read.len() {
        let pattern = if k + 1 == read.len() {
            "_".to_string()
        } else {
            k.to_string()
        };
        arms.push_str(&format!(
            "{pattern} => __f{k} = ::core::option::Option::Some(\
             ::serde::Deserialize::deserialize_json(__r)?),"
        ));
    }
    if read.is_empty() {
        arms.push_str("_ => {}");
    }
    out.push_str(&format!(
        "let mut __deferred = __r.read_struct({}, &[{}], {deny}, |__r, __i| {{ \
             match __i {{ {arms} }} \
             ::core::result::Result::Ok(()) \
         }})?;",
        lit(not_object),
        names.join(", ")
    ));
    out.push_str(&format!("{ty_path} {{"));
    let mut k = 0;
    for f in fields {
        if f.skip {
            out.push_str(&format!("{}: ::core::default::Default::default(),", f.name));
        } else {
            out.push_str(&format!(
                "{}: ::serde::take_field(__f{k}, {k}, &mut __deferred, {})?,",
                f.name,
                lit(&format!("missing field `{}`", f.name))
            ));
            k += 1;
        }
    }
    out.push_str("} }");
    out
}

/// An expression reading an `n`-element array into `ctor(x0, …)`.
fn deserialize_items(ctor: &str, n: usize, not_array: &str) -> String {
    let mut out = String::from("{");
    let mut arms = String::new();
    for k in 0..n {
        out.push_str(&format!("let mut __x{k} = ::core::option::Option::None;"));
        let pattern = if k + 1 == n {
            "_".to_string()
        } else {
            k.to_string()
        };
        arms.push_str(&format!(
            "{pattern} => __x{k} = ::core::option::Option::Some(\
             ::serde::Deserialize::deserialize_json(__r)?),"
        ));
    }
    if n == 0 {
        arms.push_str("_ => {}");
    }
    out.push_str(&format!(
        "__r.read_tuple({n}, {}, \"wrong tuple arity\", |__r, __i| {{ \
             match __i {{ {arms} }} \
             ::core::result::Result::Ok(()) \
         }})?;",
        lit(not_array)
    ));
    let items: Vec<String> = (0..n)
        .map(|k| format!("::serde::take_field(__x{k}, {k}, &mut None, \"wrong tuple arity\")?"))
        .collect();
    out.push_str(&format!("{ctor}({}) }}", items.join(", ")));
    out
}

/// Renders `impl<G: Bound, ...>` / `Name<G, ...>` header pieces.
fn generic_header(generics: &[String], bound: &str) -> (String, String) {
    if generics.is_empty() {
        return (String::new(), String::new());
    }
    let params: Vec<String> = generics.iter().map(|g| format!("{g}: {bound}")).collect();
    (
        format!("<{}>", params.join(", ")),
        format!("<{}>", generics.join(", ")),
    )
}

fn serialize_impl(header: &str, body: &str) -> String {
    format!(
        "{header} {{ \
             fn serialize_json(&self, __out: &mut ::std::string::String) \
                 -> ::core::result::Result<(), ::serde::Error> {{ \
                 {body} \
                 ::core::result::Result::Ok(()) \
             }} \
         }}"
    )
}

fn deserialize_impl(header: &str, body: &str) -> String {
    format!(
        "{header} {{ \
             fn deserialize_json(__r: &mut ::serde::Reader<'_>) \
                 -> ::core::result::Result<Self, ::serde::Error> {{ \
                 {body} \
             }} \
         }}"
    )
}

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct {
            name,
            generics,
            fields,
            ..
        } => {
            let (impl_params, ty_args) = generic_header(generics, "::serde::Serialize");
            serialize_impl(
                &format!("impl{impl_params} ::serde::Serialize for {name}{ty_args}"),
                &serialize_fields(fields, true),
            )
        }
        Item::UnitStruct { name } => serialize_impl(
            &format!("impl ::serde::Serialize for {name}"),
            "__out.push_str(\"{}\");",
        ),
        Item::TupleStruct { name, arity: 1 } => serialize_impl(
            &format!("impl ::serde::Serialize for {name}"),
            "::serde::Serialize::serialize_json(&self.0, __out)?;",
        ),
        Item::TupleStruct { name, arity } => {
            let binders: Vec<String> = (0..*arity).map(|k| format!("__x{k}")).collect();
            let refs: Vec<String> = (0..*arity).map(|k| format!("&self.{k}")).collect();
            serialize_impl(
                &format!("impl ::serde::Serialize for {name}"),
                &format!(
                    "let ({}) = ({}); {}",
                    binders.join(", "),
                    refs.join(", "),
                    serialize_items(*arity)
                ),
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let tag = lit(&format!("{{\"{vn}\":"));
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vn} => __out.push_str({}),",
                        lit(&format!("\"{vn}\""))
                    )),
                    VariantKind::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vn}(__x0) => {{ __out.push_str({tag}); \
                         ::serde::Serialize::serialize_json(__x0, __out)?; __out.push('}}'); }}"
                    )),
                    VariantKind::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|k| format!("__x{k}")).collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => {{ __out.push_str({tag}); {} __out.push('}}'); }}",
                            binders.join(", "),
                            serialize_items(*n)
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let binders: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                if f.skip {
                                    format!("{}: _", f.name)
                                } else {
                                    f.name.clone()
                                }
                            })
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {} }} => {{ __out.push_str({tag}); {} __out.push('}}'); }}",
                            binders.join(", "),
                            serialize_fields(fields, false)
                        ));
                    }
                }
            }
            serialize_impl(
                &format!("impl ::serde::Serialize for {name}"),
                &format!("match self {{ {arms} }}"),
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Struct {
            name,
            generics,
            fields,
            deny_unknown_fields,
        } => {
            let (impl_params, ty_args) = generic_header(generics, "::serde::Deserialize");
            deserialize_impl(
                &format!("impl{impl_params} ::serde::Deserialize for {name}{ty_args}"),
                &format!(
                    "::core::result::Result::Ok({})",
                    deserialize_fields(
                        name,
                        fields,
                        &format!("expected object for {name}"),
                        *deny_unknown_fields
                    )
                ),
            )
        }
        Item::UnitStruct { name } => deserialize_impl(
            &format!("impl ::serde::Deserialize for {name}"),
            &format!("__r.skip_value()?; ::core::result::Result::Ok({name})"),
        ),
        Item::TupleStruct { name, arity: 1 } => deserialize_impl(
            &format!("impl ::serde::Deserialize for {name}"),
            &format!(
                "::core::result::Result::Ok({name}(::serde::Deserialize::deserialize_json(__r)?))"
            ),
        ),
        Item::TupleStruct { name, arity } => deserialize_impl(
            &format!("impl ::serde::Deserialize for {name}"),
            &format!(
                "::core::result::Result::Ok({})",
                deserialize_items(name, *arity, &format!("expected array for {name}"))
            ),
        ),
        Item::Enum { name, variants } => {
            let mut units = Vec::new();
            let mut tagged = Vec::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => units.push((vn, format!("{name}::{vn}"))),
                    VariantKind::Tuple(1) => tagged.push((
                        vn,
                        format!("{name}::{vn}(::serde::Deserialize::deserialize_json(__r)?)"),
                    )),
                    VariantKind::Tuple(n) => tagged.push((
                        vn,
                        deserialize_items(&format!("{name}::{vn}"), *n, "expected array payload"),
                    )),
                    VariantKind::Struct(fields) => tagged.push((
                        vn,
                        deserialize_fields(
                            &format!("{name}::{vn}"),
                            fields,
                            "expected object payload",
                            false,
                        ),
                    )),
                }
            }
            let arms = |cases: &[(&String, String)]| -> String {
                if cases.is_empty() {
                    return "_ => ::core::unreachable!(),".to_string();
                }
                cases
                    .iter()
                    .enumerate()
                    .map(|(k, (_, expr))| {
                        let pattern = if k + 1 == cases.len() {
                            "_".to_string()
                        } else {
                            k.to_string()
                        };
                        format!("{pattern} => {expr},")
                    })
                    .collect()
            };
            let names = |cases: &[(&String, String)]| -> String {
                cases
                    .iter()
                    .map(|(vn, _)| lit(vn))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let unrecognized = lit(&format!("unrecognized {name} value"));
            let payload = if tagged.is_empty() {
                format!("|_, _| ::core::result::Result::Err(::serde::Error::msg({unrecognized}))")
            } else {
                format!(
                    "|__r, __i| ::core::result::Result::Ok(match __i {{ {} }})",
                    arms(&tagged)
                )
            };
            deserialize_impl(
                &format!("impl ::serde::Deserialize for {name}"),
                &format!(
                    "__r.read_enum(&[{}], &[{}], {unrecognized}, |__i| match __i {{ {} }}, {payload})",
                    names(&units),
                    names(&tagged),
                    arms(&units),
                ),
            )
        }
    }
}
