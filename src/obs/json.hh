/**
 * @file
 * Minimal recursive-descent JSON parser.
 *
 * Exists so the snapshot/trace exporters can be validated without an
 * external dependency: the parse-back round-trip tests and the CI
 * schema checker both consume this. It handles the full JSON grammar
 * but is tuned for small documents; not a streaming parser.
 */

#ifndef XFM_OBS_JSON_HH
#define XFM_OBS_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace xfm
{
namespace obs
{
namespace json
{

class Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

/** One parsed JSON value (tagged union). */
class Value
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        ArrayT,
        ObjectT,
    };

    Value() = default;

    Type type() const { return type_; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isObject() const { return type_ == Type::ObjectT; }

    bool boolean() const { return b_; }
    double number() const { return num_; }
    /** True when the source text had no '.', 'e', or sign fraction. */
    bool isIntegral() const { return integral_; }
    std::int64_t integer() const { return int_; }
    const std::string &str() const { return str_; }
    const Array &array() const { return *arr_; }
    const Object &object() const { return *obj_; }

    /** Object member access; @throws FatalError on type/key miss. */
    const Value &at(const std::string &key) const;
    bool has(const std::string &key) const;

    static Value makeNull();
    static Value makeBool(bool b);
    static Value makeNumber(double d, bool integral, std::int64_t i);
    static Value makeString(std::string s);
    static Value makeArray(Array a);
    static Value makeObject(Object o);

  private:
    Type type_ = Type::Null;
    bool b_ = false;
    double num_ = 0.0;
    bool integral_ = false;
    std::int64_t int_ = 0;
    std::string str_;
    std::shared_ptr<Array> arr_;
    std::shared_ptr<Object> obj_;
};

/**
 * Parse one JSON document.
 *
 * @param text      the document
 * @param error     set to a description on failure
 * @param consumed  bytes consumed (for JSON-lines iteration)
 * @return the value, or nullopt-like Null with error set on failure
 */
bool parse(const std::string &text, Value &out, std::string &error,
           std::size_t *consumed = nullptr);

} // namespace json
} // namespace obs
} // namespace xfm

#endif // XFM_OBS_JSON_HH
