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
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item).parse().unwrap(),
        Err(e) => compile_error(&e),
    }
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

/// Emits an object-building expression. With `through_self` the fields
/// are read as `&self.f`; otherwise `f` is an in-scope match binding that
/// is already a reference.
fn serialize_fields(fields: &[Field], through_self: bool) -> String {
    let mut out = String::from("{ let mut __fields: Vec<(String, ::serde::Value)> = Vec::new();");
    for f in fields {
        if f.skip {
            continue;
        }
        let access = if through_self {
            format!("&self.{}", f.name)
        } else {
            f.name.clone()
        };
        out.push_str(&format!(
            "__fields.push(({:?}.to_string(), ::serde::Serialize::to_value({})));",
            f.name, access
        ));
    }
    out.push_str("::serde::Value::Object(__fields) }");
    out
}

fn deserialize_fields(ty_path: &str, fields: &[Field], source: &str) -> String {
    let mut out = format!("{ty_path} {{");
    for f in fields {
        if f.skip {
            out.push_str(&format!("{}: ::core::default::Default::default(),", f.name));
        } else {
            out.push_str(&format!(
                "{name}: match ::serde::Value::get({src}, {name_str:?}) {{ \
                     Some(__v) => ::serde::Deserialize::from_value(__v)?, \
                     None => return Err(::serde::Error::msg(concat!(\"missing field `\", {name_str:?}, \"`\"))), \
                 }},",
                name = f.name,
                name_str = f.name,
                src = source
            ));
        }
    }
    out.push('}');
    out
}

/// Emits the `deny_unknown_fields` check over the object entries bound
/// to `__pairs`: the first key that names no (non-skipped) field is an
/// error listing the expected ones, in serde's wording.
fn deny_unknown_check(fields: &[Field]) -> String {
    let known: Vec<&str> = fields
        .iter()
        .filter(|f| !f.skip)
        .map(|f| f.name.as_str())
        .collect();
    let expected: Vec<String> = known.iter().map(|n| format!("`{n}`")).collect();
    format!(
        "for (__key, _) in __pairs {{ \
             if !{known:?}.contains(&__key.as_str()) {{ \
                 return Err(::serde::Error::msg(format!( \
                     \"unknown field `{{}}`, expected one of {}\", __key))); \
             }} \
         }}",
        expected.join(", ")
    )
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

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct {
            name,
            generics,
            fields,
            ..
        } => {
            let (impl_params, ty_args) = generic_header(generics, "::serde::Serialize");
            format!(
                "impl{impl_params} ::serde::Serialize for {name}{ty_args} {{ \
                     fn to_value(&self) -> ::serde::Value {{ {} }} \
                 }}",
                serialize_fields(fields, true)
            )
        }
        Item::UnitStruct { name } => format!(
            "impl ::serde::Serialize for {name} {{ \
                 fn to_value(&self) -> ::serde::Value {{ ::serde::Value::Object(Vec::new()) }} \
             }}"
        ),
        Item::TupleStruct { name, arity: 1 } => format!(
            "impl ::serde::Serialize for {name} {{ \
                 fn to_value(&self) -> ::serde::Value {{ ::serde::Serialize::to_value(&self.0) }} \
             }}"
        ),
        Item::TupleStruct { name, arity } => {
            let items: Vec<String> = (0..*arity)
                .map(|k| format!("::serde::Serialize::to_value(&self.{k})"))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{ \
                     fn to_value(&self) -> ::serde::Value {{ \
                         ::serde::Value::Array(vec![{}]) \
                     }} \
                 }}",
                items.join(", ")
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::Str({vn:?}.to_string()),"
                    )),
                    VariantKind::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vn}(__x0) => ::serde::Value::Object(vec![({vn:?}.to_string(), \
                         ::serde::Serialize::to_value(__x0))]),"
                    )),
                    VariantKind::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|k| format!("__x{k}")).collect();
                        let items: Vec<String> = binders
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => ::serde::Value::Object(vec![({vn:?}.to_string(), \
                             ::serde::Value::Array(vec![{}]))]),",
                            binders.join(", "),
                            items.join(", ")
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let binders: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {} }} => ::serde::Value::Object(vec![({vn:?}.to_string(), {})]),",
                            binders.join(", "),
                            serialize_fields(fields, false)
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Serialize for {name} {{ \
                     fn to_value(&self) -> ::serde::Value {{ match self {{ {arms} }} }} \
                 }}"
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
            let unknown_check = if *deny_unknown_fields {
                deny_unknown_check(fields)
            } else {
                String::new()
            };
            format!(
                "impl{impl_params} ::serde::Deserialize for {name}{ty_args} {{ \
                     fn from_value(__v: &::serde::Value) -> Result<Self, ::serde::Error> {{ \
                         let Some(__pairs) = __v.as_object() else {{ \
                             return Err(::serde::Error::msg(concat!(\"expected object for \", {name:?}))); \
                         }}; \
                         {unknown_check} \
                         Ok({}) \
                     }} \
                 }}",
                deserialize_fields(name, fields, "__v")
            )
        }
        Item::UnitStruct { name } => format!(
            "impl ::serde::Deserialize for {name} {{ \
                 fn from_value(_: &::serde::Value) -> Result<Self, ::serde::Error> {{ Ok({name}) }} \
             }}"
        ),
        Item::TupleStruct { name, arity: 1 } => format!(
            "impl ::serde::Deserialize for {name} {{ \
                 fn from_value(__v: &::serde::Value) -> Result<Self, ::serde::Error> {{ \
                     Ok({name}(::serde::Deserialize::from_value(__v)?)) \
                 }} \
             }}"
        ),
        Item::TupleStruct { name, arity } => {
            let elems: Vec<String> = (0..*arity)
                .map(|k| format!("::serde::Deserialize::from_value(&__items[{k}])?"))
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{ \
                     fn from_value(__v: &::serde::Value) -> Result<Self, ::serde::Error> {{ \
                         let __items = __v.as_array().ok_or_else(|| \
                             ::serde::Error::msg(concat!(\"expected array for \", {name:?})))?; \
                         if __items.len() != {arity} {{ \
                             return Err(::serde::Error::msg(\"wrong tuple arity\")); \
                         }} \
                         Ok({name}({})) \
                     }} \
                 }}",
                elems.join(", ")
            )
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => {
                        unit_arms.push_str(&format!("{vn:?} => return Ok({name}::{vn}),"));
                    }
                    VariantKind::Tuple(1) => tagged_arms.push_str(&format!(
                        "{vn:?} => return Ok({name}::{vn}(::serde::Deserialize::from_value(__payload)?)),"
                    )),
                    VariantKind::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|k| {
                                format!("::serde::Deserialize::from_value(&__items[{k}])?")
                            })
                            .collect();
                        tagged_arms.push_str(&format!(
                            "{vn:?} => {{ \
                                 let __items = __payload.as_array().ok_or_else(|| \
                                     ::serde::Error::msg(\"expected array payload\"))?; \
                                 if __items.len() != {n} {{ \
                                     return Err(::serde::Error::msg(\"wrong tuple arity\")); \
                                 }} \
                                 return Ok({name}::{vn}({})); \
                             }}",
                            elems.join(", ")
                        ));
                    }
                    VariantKind::Struct(fields) => tagged_arms.push_str(&format!(
                        "{vn:?} => {{ \
                             if __payload.as_object().is_none() {{ \
                                 return Err(::serde::Error::msg(\"expected object payload\")); \
                             }} \
                             return Ok({}); \
                         }}",
                        deserialize_fields(&format!("{name}::{vn}"), fields, "__payload")
                    )),
                }
            }
            format!(
                "impl ::serde::Deserialize for {name} {{ \
                     fn from_value(__v: &::serde::Value) -> Result<Self, ::serde::Error> {{ \
                         if let Some(__s) = __v.as_str() {{ \
                             match __s {{ {unit_arms} _ => {{}} }} \
                         }} \
                         if let Some(__pairs) = __v.as_object() {{ \
                             if __pairs.len() == 1 {{ \
                                 let (__tag, __payload) = (&__pairs[0].0, &__pairs[0].1); \
                                 match __tag.as_str() {{ {tagged_arms} _ => {{}} }} \
                             }} \
                         }} \
                         Err(::serde::Error::msg(concat!(\"unrecognized \", {name:?}, \" value\"))) \
                     }} \
                 }}"
            )
        }
    }
}
